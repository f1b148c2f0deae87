//go:build !amd64

package nn

// Non-amd64 builds use the pure-Go kernels in batch.go. useSIMD is a
// var (always false here) so tests that toggle it compile everywhere.
var useSIMD = false

func rows4asm(w, x, bias, z *float64, n, m int) {
	panic("nn: SIMD kernel on non-amd64")
}

func gradasm(dz, x, dw, db *float64, scratch *uint64, rows, in, out int) {
	panic("nn: SIMD kernel on non-amd64")
}

func reluasm(z, y *float64, n int) {
	panic("nn: SIMD kernel on non-amd64")
}

func reluderivasm(dY, z, dz *float64, n int) {
	panic("nn: SIMD kernel on non-amd64")
}

func seqasm(w, x, b, z *float64, in, out int) {
	panic("nn: SIMD kernel on non-amd64")
}

func tanhasm(z, y *float64, n int) {
	panic("nn: SIMD kernel on non-amd64")
}

func transposeasm(w, wt *float64, in, out int) {
	panic("nn: SIMD kernel on non-amd64")
}

func adamasm(p, grad, m, v, tgt *float64, n int, beta1, beta2, lr, eps, b1c, b2c, tau float64) {
	panic("nn: SIMD kernel on non-amd64")
}

func scaleasm(f float64, x *float64, n int) (sq float64) {
	panic("nn: SIMD kernel on non-amd64")
}

func rows4asmf32(w, x, bias, z *float32, n, m int) {
	panic("nn: SIMD kernel on non-amd64")
}

func gradasmf32(dz, x, dw, db *float32, scratch *uint64, rows, in, out int) {
	panic("nn: SIMD kernel on non-amd64")
}

func reluasmf32(z, y *float32, n int) {
	panic("nn: SIMD kernel on non-amd64")
}

func reluderivasmf32(dY, z, dz *float32, n int) {
	panic("nn: SIMD kernel on non-amd64")
}

func adamasmf32(p, grad, m, v, tgt *float32, n int, beta1, beta2, lr, eps, b1c, b2c, tau float32) {
	panic("nn: SIMD kernel on non-amd64")
}

func scaleasmf32(f float32, x *float32, n int) (sq float64) {
	panic("nn: SIMD kernel on non-amd64")
}
