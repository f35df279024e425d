// Package simd reports the vector instruction sets the node-local kernels of
// sparse and localsolve may dispatch to. The probe runs once, at package
// init; without an assembly probe for the platform (another GOARCH, or the
// purego build tag) every feature reads false and the Go kernels run.
package simd

// AVX2 reports that the CPU executes AVX2 and that the operating system
// saves the YMM registers across context switches (XCR0 has the SSE and
// AVX state bits), so 256-bit kernels are safe to run.
var AVX2 bool
