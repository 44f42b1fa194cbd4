//go:build !unix

package main

// allocSpans falls back to the Go heap where there is no mmap; see the unix
// version for what that costs.
func allocSpans(n int) []span { return make([]span, n) }
