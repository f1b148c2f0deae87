//go:build amd64

package nn

// Assembly kernel declarations (simd_amd64.s).

// rows4asm and gradasm are the two layer kernels of the batch passes;
// batch.go documents them at their callers (rows4, accumGrads).
//
//go:noescape
func rows4asm(w, x, bias, z *float64, n, m int)

//go:noescape
func gradasm(dz, x, dw, db *float64, scratch *uint64, rows, in, out int)

// reluasm and reluderivasm are the elementwise ReLU kernels over n
// elements, n a multiple of the lane count (reluVec, reluDerivVec).
//
//go:noescape
func reluasm(z, y *float64, n int)

//go:noescape
func reluderivasm(dY, z, dz *float64, n int)

// seqasm, tanhasm and transposeasm are the float64 leaf kernels
// (leaves_amd64.s); batch.go documents them at their callers
// (seqProduct, tanhs64, transpose).
//
//go:noescape
func seqasm(w, x, b, z *float64, in, out int)

//go:noescape
func tanhasm(z, y *float64, n int)

//go:noescape
func transposeasm(w, wt *float64, in, out int)

// adamasm and scaleasm are the optimizer kernels; adam.go documents
// them at their callers (AdamStep, scale).
//
//go:noescape
func adamasm(p, grad, m, v, tgt *float64, n int, beta1, beta2, lr, eps, b1c, b2c, tau float64)

//go:noescape
func scaleasm(f float64, x *float64, n int) (sq float64)

// float32 kernels (8 lanes per YMM instead of 4).

//go:noescape
func rows4asmf32(w, x, bias, z *float32, n, m int)

//go:noescape
func gradasmf32(dz, x, dw, db *float32, scratch *uint64, rows, in, out int)

//go:noescape
func reluasmf32(z, y *float32, n int)

//go:noescape
func reluderivasmf32(dY, z, dz *float32, n int)

//go:noescape
func adamasmf32(p, grad, m, v, tgt *float32, n int, beta1, beta2, lr, eps, b1c, b2c, tau float32)

//go:noescape
func scaleasmf32(f float32, x *float32, n int) (sq float64)

func cpuidx(leaf, sub uint32) (a, b, c, d uint32)

func xgetbv0() (eax, edx uint32)

// useSIMD gates the AVX2+FMA kernels. It requires CPU support for
// AVX2 and FMA plus OS support for saving YMM state (OSXSAVE/XGETBV).
var useSIMD = detectAVX2FMA()

func detectAVX2FMA() bool {
	maxID, _, _, _ := cpuidx(0, 0)
	if maxID < 7 {
		return false
	}
	_, _, c1, _ := cpuidx(1, 0)
	const (
		fmaBit     = 1 << 12
		osxsaveBit = 1 << 27
		avxBit     = 1 << 28
	)
	if c1&fmaBit == 0 || c1&osxsaveBit == 0 || c1&avxBit == 0 {
		return false
	}
	xcr0, _ := xgetbv0()
	if xcr0&0x6 != 0x6 { // XMM and YMM state enabled by the OS
		return false
	}
	_, b7, _, _ := cpuidx(7, 0)
	const avx2Bit = 1 << 5
	return b7&avx2Bit != 0
}
