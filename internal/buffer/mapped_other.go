//go:build !(linux || darwin)

package buffer

// Map returns n zeroed bytes; without mmap they come from the heap.
func Map(n int) []byte { return make([]byte, n) }

// Unmap leaves heap memory from Map to the collector.
func Unmap([]byte) {}
