// AVX2+FMA kernels for the three float64 leaves outside the batch
// passes' layer kernels (simd_amd64.s): the sequential-order product
// under Forward and ForwardRows, math.Tanh, and the weight transpose
// of the backward pass. Each computes, per element, exactly what the
// Go loop it replaces computes — the "Kernel contract" entries of
// doc.go — so which of the two ran never shows in a result. All three
// are stateless: they touch nothing but their arguments, which is what
// lets the controller's shards and the figure pool call them
// concurrently. float32 has no twin of any of them.

#include "textflag.h"

// ---- sequential-order product.
//
//	z[o] = b[o] + Σ_i w[o*in+i]·x[i]
//
// summed in ascending i from the bias, every step one rounded multiply
// then one rounded add — `sum := b[o]; sum += w[o*in+i] * x[i]` — never
// an FMA. The four lanes of a vector are four OUTPUTS o..o+3, so each
// lane walks its own row in the scalar order; what vectorises is the
// independence of the rows, not the sum.
//
// W is row-major, so a 4×4 block (rows o..o+3, columns i..i+3) is
// transposed on the way in: the two 16-byte halves of rows o and o+1
// are loaded into low lanes, those of rows o+2 and o+3 inserted above
// them, and VUNPCKL/HPD pick the four column vectors out.

// BLOCK4X4 loads the 4×4 block at base — four rows R9 bytes apart, R10
// = 3·R9 — transposed: its columns come out in Y8..Y11 (Y4..Y7 are
// scratch). The transpose kernel below stores exactly this.
#define BLOCK4X4(base) \
	VMOVUPD (base), X4; \
	VMOVUPD (base)(R9*1), X5; \
	VINSERTF128 $1, (base)(R9*2), Y4, Y4; \
	VINSERTF128 $1, (base)(R10*1), Y5, Y5; \
	VMOVUPD 16(base), X6; \
	VMOVUPD 16(base)(R9*1), X7; \
	VINSERTF128 $1, 16(base)(R9*2), Y6, Y6; \
	VINSERTF128 $1, 16(base)(R10*1), Y7, Y7; \
	VUNPCKLPD Y5, Y4, Y8; \
	VUNPCKHPD Y5, Y4, Y9; \
	VUNPCKLPD Y7, Y6, Y10; \
	VUNPCKHPD Y7, Y6, Y11

// SEQ_BLOCK adds columns i..i+3 of the four rows at base to acc; the
// broadcast x[i..i+3] are in Y12..Y15. The multiply takes x first and
// the add takes the sum first, as the compiled Go loop does, which
// decides nothing but the payload when two NaNs meet.
#define SEQ_BLOCK(base, acc) \
	BLOCK4X4(base); \
	VMULPD Y8, Y12, Y8; \
	VADDPD Y8, acc, acc; \
	VMULPD Y9, Y13, Y9; \
	VADDPD Y9, acc, acc; \
	VMULPD Y10, Y14, Y10; \
	VADDPD Y10, acc, acc; \
	VMULPD Y11, Y15, Y11; \
	VADDPD Y11, acc, acc

// SEQ_COL adds the single column at base (the in%4 tail) to acc; the
// broadcast x[i] is in Y12.
#define SEQ_COL(base, acc) \
	VMOVSD (base), X4; \
	VMOVHPD (base)(R9*1), X4, X4; \
	VMOVSD (base)(R9*2), X5; \
	VMOVHPD (base)(R10*1), X5, X5; \
	VINSERTF128 $1, X5, Y4, Y4; \
	VMULPD Y4, Y12, Y4; \
	VADDPD Y4, acc, acc

// SEQ_ROWS sets R11..R14 to the first rows of the four groups of the
// quad at AX: AX, AX+4, AX+8, AX+12, each held to DX = out-4. A group
// that would run past the last row starts at out-4 instead and
// recomputes rows an earlier group also covers — the same bits, stored
// twice — so out%4 rows need no scalar tail and a short quad no second
// loop.
#define SEQ_ROWS \
	MOVQ AX, R11; \
	LEAQ 4(AX), R12; \
	LEAQ 8(AX), R13; \
	LEAQ 12(AX), R14; \
	CMPQ R11, DX; \
	CMOVQGT DX, R11; \
	CMPQ R12, DX; \
	CMOVQGT DX, R12; \
	CMPQ R13, DX; \
	CMOVQGT DX, R13; \
	CMPQ R14, DX; \
	CMOVQGT DX, R14

// func seqasm(w, x, b, z *float64, in, out int)
//
// out >= 4, in >= 1. Sixteen outputs are in flight at once: one
// accumulator chain per group of four, which is what covers the add
// latency the scalar loop serialises on.
TEXT ·seqasm(SB), NOSPLIT, $0-48
	MOVQ w+0(FP), SI
	MOVQ x+8(FP), R8
	MOVQ b+16(FP), BX
	MOVQ in+32(FP), CX
	MOVQ out+40(FP), DX
	MOVQ CX, R9
	SHLQ $3, R9               // R9 = bytes per w row
	LEAQ (R9)(R9*2), R10      // R10 = three rows
	SUBQ $4, DX               // DX = first row of the last group
	XORQ AX, AX               // AX = first row of this quad

seqquad:
	SEQ_ROWS
	VMOVUPD (BX)(R11*8), Y0   // the sums start from the bias
	VMOVUPD (BX)(R12*8), Y1
	VMOVUPD (BX)(R13*8), Y2
	VMOVUPD (BX)(R14*8), Y3
	IMULQ R9, R11             // row index -> address of the row
	IMULQ R9, R12
	IMULQ R9, R13
	IMULQ R9, R14
	ADDQ SI, R11
	ADDQ SI, R12
	ADDQ SI, R13
	ADDQ SI, R14
	MOVQ R8, R15              // R15 walks x
	MOVQ CX, DI
	SHRQ $2, DI               // DI = whole 4-column blocks
	JZ   seqcols

seqblock:
	VBROADCASTSD (R15), Y12
	VBROADCASTSD 8(R15), Y13
	VBROADCASTSD 16(R15), Y14
	VBROADCASTSD 24(R15), Y15
	SEQ_BLOCK(R11, Y0)
	SEQ_BLOCK(R12, Y1)
	SEQ_BLOCK(R13, Y2)
	SEQ_BLOCK(R14, Y3)
	ADDQ $32, R11
	ADDQ $32, R12
	ADDQ $32, R13
	ADDQ $32, R14
	ADDQ $32, R15
	DECQ DI
	JNZ  seqblock

seqcols:
	MOVQ CX, DI
	ANDQ $3, DI               // DI = in%4 trailing columns
	JZ   seqstore

seqcol:
	VBROADCASTSD (R15), Y12
	SEQ_COL(R11, Y0)
	SEQ_COL(R12, Y1)
	SEQ_COL(R13, Y2)
	SEQ_COL(R14, Y3)
	ADDQ $8, R11
	ADDQ $8, R12
	ADDQ $8, R13
	ADDQ $8, R14
	ADDQ $8, R15
	DECQ DI
	JNZ  seqcol

seqstore:
	MOVQ z+24(FP), DI
	SEQ_ROWS
	VMOVUPD Y0, (DI)(R11*8)
	VMOVUPD Y1, (DI)(R12*8)
	VMOVUPD Y2, (DI)(R13*8)
	VMOVUPD Y3, (DI)(R14*8)
	ADDQ $16, AX
	LEAQ 4(DX), R11           // out
	CMPQ AX, R11
	JLT  seqquad
	VZEROUPPER
	RET

// ---- math.Tanh, four lanes at a time.
//
// The operation sequence of math.tanh (tanh.go) and, under it, of the
// FMA branch of math.archExp (exp_amd64.s) — the branch math.useFMA
// selects, which useSIMD implies — with the same constants, executed
// lane-wise. Every lane computes both the rational and the exponential
// form; ordered compares then pick per lane what tanh's switch picks.
// Lanes the exponential form is not for (small, huge, NaN) compute
// garbage there that the blend discards.

// TANHC places one float64 constant, by its bits, in all four lanes.
#define TANHC(off, bits) \
	DATA tanhc<>+off+0(SB)/8, bits; \
	DATA tanhc<>+off+8(SB)/8, bits; \
	DATA tanhc<>+off+16(SB)/8, bits; \
	DATA tanhc<>+off+24(SB)/8, bits

TANHC(0, $0x3ff71547652b82fe)   // LOG2E 1.4426950408889634073599246810018920
TANHC(32, $0x3fe62e42fefa3000)  // LN2U 0.69314718055966295651160180568695068359375
TANHC(64, $0x3d53de6af278ece6)  // LN2L 0.28235290563031577122588448175013436025525412068e-12
TANHC(96, $0x3fb0000000000000)  // 0.0625
TANHC(128, $0x3efa01a01a01a01a) // 2.4801587301587301587e-5, exprodata+64
TANHC(160, $0x3f2a01a01a01a01a) // 1.9841269841269841270e-4, +56
TANHC(192, $0x3f56c16c16c16c17) // 1.3888888888888888889e-3, +48
TANHC(224, $0x3f81111111111111) // 8.3333333333333333333e-3, +40
TANHC(256, $0x3fa5555555555555) // 4.1666666666666666667e-2, +32
TANHC(288, $0x3fc5555555555555) // 1.6666666666666666667e-1, +24
TANHC(320, $0x3fe0000000000000) // 0.5, +0
TANHC(352, $0x3ff0000000000000) // 1.0, +8
TANHC(384, $0x4000000000000000) // 2.0, +16
TANHC(416, $0xbfeedc5baafd6f4b) // tanhP[0] -9.64399179425052238628e-1
TANHC(448, $0xc058d26a0e26682d) // tanhP[1] -9.92877231001918586564e1
TANHC(480, $0xc0993ac030580563) // tanhP[2] -1.61468768441708447952e3
TANHC(512, $0x405c33f28a581b86) // tanhQ[0] 1.12811678491632931402e2
TANHC(544, $0x40a176fa0e5535fa) // tanhQ[1] 2.23548839060100448583e3
TANHC(576, $0x40b2ec102442040c) // tanhQ[2] 4.84406305325125486048e3
TANHC(608, $0x3fe4000000000000) // 0.625
TANHC(640, $0x404601e678fc457b) // 0.5*MAXLOG, MAXLOG = 8.8029691931113054295988e+01
TANHC(672, $0x8000000000000000) // the sign bit
DATA tanhc<>+704(SB)/8, $0x000003ff000003ff // the exponent bias, four int32
DATA tanhc<>+712(SB)/8, $0x000003ff000003ff
GLOBL tanhc<>(SB), RODATA|NOPTR, $720

#define T_LOG2E tanhc<>+0(SB)
#define T_LN2U tanhc<>+32(SB)
#define T_LN2L tanhc<>+64(SB)
#define T_SIXTEENTH tanhc<>+96(SB)
#define T_C8 tanhc<>+128(SB)
#define T_C7 tanhc<>+160(SB)
#define T_C6 tanhc<>+192(SB)
#define T_C5 tanhc<>+224(SB)
#define T_C4 tanhc<>+256(SB)
#define T_C3 tanhc<>+288(SB)
#define T_HALF tanhc<>+320(SB)
#define T_ONE tanhc<>+352(SB)
#define T_TWO tanhc<>+384(SB)
#define T_P0 tanhc<>+416(SB)
#define T_P1 tanhc<>+448(SB)
#define T_P2 tanhc<>+480(SB)
#define T_Q0 tanhc<>+512(SB)
#define T_Q1 tanhc<>+544(SB)
#define T_Q2 tanhc<>+576(SB)
#define T_SMALL tanhc<>+608(SB)
#define T_BIG tanhc<>+640(SB)
#define T_SIGN tanhc<>+672(SB)
#define T_BIAS tanhc<>+704(SB)

// func tanhasm(z, y *float64, n int)
//
// y[i] = math.Tanh(z[i]) over n elements, n a multiple of 4; the
// caller finishes the tail with math.Tanh itself.
TEXT ·tanhasm(SB), NOSPLIT, $0-24
	MOVQ z+0(FP), SI
	MOVQ y+8(FP), DI
	MOVQ n+16(FP), CX
	VMOVUPD T_SIGN, Y13
	VMOVUPD T_ONE, Y14
	VMOVUPD T_TWO, Y15
	// Pointers address the END of the data, so the loop counts a
	// negative byte index up to zero.
	SHLQ $3, CX
	ADDQ CX, SI
	ADDQ CX, DI
	NEGQ CX
	JZ   tanhdone

tanhloop:
	VMOVUPD (SI)(CX*1), Y0      // x
	VANDNPD Y0, Y13, Y1         // z = |x|

	// s = Exp(2z), as archExp's avxfma branch: n = round(2z·LOG2E),
	// r = (2z - n·LN2U - n·LN2L)/16 by two fused negate-multiply-adds,
	// e^r - 1 by a 7-step fused Horner and a multiply, four doublings
	// y <- (y+2)·y with the last one fused into "+ 1", and the
	// exponent n added by building 2^n from its bits.
	VADDPD Y1, Y1, Y2           // 2z (exactly 2*z)
	VMULPD T_LOG2E, Y2, Y3
	VCVTPD2DQY Y3, X3           // n, to nearest even (CVTSD2SL)
	VCVTDQ2PD X3, Y4
	VFNMADD231PD T_LN2U, Y4, Y2
	VFNMADD231PD T_LN2L, Y4, Y2
	VMULPD T_SIXTEENTH, Y2, Y2
	VMOVUPD T_C8, Y5
	VFMADD213PD T_C7, Y2, Y5
	VFMADD213PD T_C6, Y2, Y5
	VFMADD213PD T_C5, Y2, Y5
	VFMADD213PD T_C4, Y2, Y5
	VFMADD213PD T_C3, Y2, Y5
	VFMADD213PD T_HALF, Y2, Y5
	VFMADD213PD T_ONE, Y2, Y5
	VMULPD Y5, Y2, Y2
	VADDPD Y15, Y2, Y5
	VMULPD Y5, Y2, Y2
	VADDPD Y15, Y2, Y5
	VMULPD Y5, Y2, Y2
	VADDPD Y15, Y2, Y5
	VMULPD Y5, Y2, Y2
	VADDPD Y15, Y2, Y5
	VFMADD213PD Y14, Y5, Y2     // (y+2)·y + 1
	VPADDD T_BIAS, X3, X3       // ADDL $0x3FF
	VPMOVZXDQ X3, Y3
	VPSLLQ $52, Y3, Y3          // 2^n
	VMULPD Y3, Y2, Y2           // s
	// 1 - 2/(s+1), negated where x < 0: above 0.625 that is where
	// x's sign bit is set.
	VADDPD Y14, Y2, Y2
	VDIVPD Y2, Y15, Y2
	VSUBPD Y2, Y14, Y2
	VANDPD Y13, Y0, Y6          // x's sign
	VXORPD Y6, Y2, Y2           // the exponential form

	// x + x·s·P(s)/Q(s), s = x², every product and sum rounded in
	// the order the Go expression evaluates it.
	VMULPD Y0, Y0, Y7           // s
	VMULPD T_P0, Y7, Y8
	VADDPD T_P1, Y8, Y8
	VMULPD Y7, Y8, Y8
	VADDPD T_P2, Y8, Y8         // (P0·s + P1)·s + P2
	VADDPD T_Q0, Y7, Y9
	VMULPD Y7, Y9, Y9
	VADDPD T_Q1, Y9, Y9
	VMULPD Y7, Y9, Y9
	VADDPD T_Q2, Y9, Y9         // ((s + Q0)·s + Q1)·s + Q2
	VMULPD Y7, Y0, Y10          // x·s
	VMULPD Y8, Y10, Y10
	VDIVPD Y9, Y10, Y10
	VADDPD Y10, Y0, Y10         // the rational form

	// tanh's switch, innermost case first. The compares are ordered,
	// so a NaN fails all three and leaves through the rational form,
	// as it does in Go; x = ±0 returns x itself (the rational form
	// would turn -0 into +0).
	VXORPD Y11, Y11, Y11
	VCMPPD $0x00, Y11, Y0, Y11  // x == 0
	VBLENDVPD Y11, Y0, Y10, Y10
	VCMPPD $0x1D, T_SMALL, Y1, Y11 // z >= 0.625
	VBLENDVPD Y11, Y2, Y10, Y10
	VCMPPD $0x1E, T_BIG, Y1, Y11 // z > 0.5·MAXLOG: ±1
	VORPD  Y6, Y14, Y12
	VBLENDVPD Y11, Y12, Y10, Y10
	VMOVUPD Y10, (DI)(CX*1)
	ADDQ $32, CX
	JNZ  tanhloop

tanhdone:
	VZEROUPPER
	RET

// ---- weight transpose.

// func transposeasm(w, wt *float64, in, out int)
//
// wt[i*out+o] = w[o*in+i] for the whole 4×4 blocks of the out × in
// matrix w: o < out&^3, i < in&^3. Movement only — BLOCK4X4 in, four
// stores out — and the caller copies the edges.
TEXT ·transposeasm(SB), NOSPLIT, $0-32
	MOVQ w+0(FP), SI
	MOVQ wt+8(FP), DI
	MOVQ in+16(FP), CX
	MOVQ out+24(FP), DX
	MOVQ CX, R9
	SHLQ $3, R9               // R9 = bytes per w row
	LEAQ (R9)(R9*2), R10
	MOVQ DX, R11
	SHLQ $3, R11              // R11 = bytes per wt row
	LEAQ (R11)(R11*2), R12
	SHRQ $2, CX               // CX = column blocks
	JZ   transdone
	SHRQ $2, DX               // DX = row blocks
	JZ   transdone

transrows:
	MOVQ SI, R13              // w block: rows o..o+3, walking columns
	MOVQ DI, R14              // wt block: rows i..i+3 at column o
	MOVQ CX, AX

transblock:
	BLOCK4X4(R13)
	VMOVUPD Y8, (R14)
	VMOVUPD Y9, (R14)(R11*1)
	VMOVUPD Y10, (R14)(R11*2)
	VMOVUPD Y11, (R14)(R12*1)
	ADDQ $32, R13
	LEAQ (R14)(R11*4), R14
	DECQ AX
	JNZ  transblock
	LEAQ (SI)(R9*4), SI
	ADDQ $32, DI
	DECQ DX
	JNZ  transrows

transdone:
	VZEROUPPER
	RET
