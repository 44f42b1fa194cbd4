//go:build !race

package laxgpu

const raceEnabled = false
