//go:build linux || darwin

package buffer

import "syscall"

// Map returns n zeroed bytes mapped outside the collected heap, as the
// Firefly kept its packet buffers in memory permanently mapped for I/O.
// Long-lived I/O buffers live there so that their size does not count
// toward the heap the collector paces itself by: a process with a small
// live heap collects more often for every byte it keeps live, and each
// cycle empties the sync.Pools that must then be refilled. The memory must
// hold no Go pointers; Unmap releases it once nothing refers to it. If the
// mapping fails, Map falls back to the heap.
func Map(n int) []byte {
	b, err := syscall.Mmap(-1, 0, n, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		return make([]byte, n)
	}
	return b
}

// Unmap releases memory from Map. Heap memory from the fallback is left to
// the collector.
func Unmap(b []byte) {
	_ = syscall.Munmap(b)
}
