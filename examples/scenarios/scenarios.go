// Package scenarios embeds the committed scenario library, so every binary
// can replay it by name from any working directory.
package scenarios

import "embed"

// FS holds every scenario file in this directory, by file name.
//
//go:embed *.json
var FS embed.FS
