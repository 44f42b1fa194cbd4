//go:build unix

package main

import (
	"syscall"
	"unsafe"
)

// allocSpans takes the span buffer from the operating system, not from the
// Go heap. The collector paces itself on live heap, and the simulator
// workloads hold so little that even a 2 MB buffer spaced its cycles out and
// made the traced run 15 % faster than the untraced one; memory the collector
// cannot see leaves its pacing alone. The mapping lives until the process
// exits.
func allocSpans(n int) []span {
	raw, err := syscall.Mmap(-1, 0, n*int(unsafe.Sizeof(span{})),
		syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		return make([]span, n)
	}
	spans := unsafe.Slice((*span)(unsafe.Pointer(&raw[0])), n)
	for i := range spans {
		spans[i] = span{} // fault the pages in now, not inside the timed region
	}
	return spans
}
