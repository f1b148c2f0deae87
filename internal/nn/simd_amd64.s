// AVX2+FMA kernels for the batched minibatch path. Selected at init
// by detectAVX2FMA (simd_amd64.go); the pure-Go kernels in batch.go
// are the fallback. The two layer kernels of the batch passes (rows4,
// grad) and the two elementwise ReLU kernels have one body each, in
// kernel_*_amd64.h, instantiated for float64 and float32 at the end of
// this file.

#include "textflag.h"

// func cpuidx(leaf, sub uint32) (a, b, c, d uint32)
TEXT ·cpuidx(SB), NOSPLIT, $0-24
	MOVL leaf+0(FP), AX
	MOVL sub+4(FP), CX
	CPUID
	MOVL AX, a+8(FP)
	MOVL BX, b+12(FP)
	MOVL CX, c+16(FP)
	MOVL DX, d+20(FP)
	RET

// func xgetbv0() (eax, edx uint32)
TEXT ·xgetbv0(SB), NOSPLIT, $0-8
	XORL CX, CX
	XGETBV
	MOVL AX, eax+0(FP)
	MOVL DX, edx+4(FP)
	RET

// func adamasm(p, grad, m, v, tgt *float64, n int, beta1, beta2, lr, eps, b1c, b2c, tau float64)
//
// One Adam update over a parameter slice, 4 doubles per iteration,
// each element followed by the soft target update of the same element,
// tgt = tau*p' + (1-tau)*tgt. The arithmetic (two moment
// EMAs, bias-corrected divides, sqrt; multiply, multiply, add) is the
// scalar Go loops' operation for operation, no FMA contraction, and
// every instruction whose two operands can both be NaN takes them in
// the Go loops' order. When b1c == 1 (every step past t = 356) the
// divide m'/b1c is skipped: it would return m' itself.
TEXT ·adamasm(SB), NOSPLIT, $0-104
	MOVQ p+0(FP), DI
	MOVQ grad+8(FP), SI
	MOVQ m+16(FP), R8
	MOVQ v+24(FP), R9
	MOVQ tgt+32(FP), R10
	MOVQ n+40(FP), CX
	VBROADCASTSD beta1+48(FP), Y8
	VBROADCASTSD beta2+56(FP), Y9
	VBROADCASTSD lr+64(FP), Y10
	VBROADCASTSD eps+72(FP), Y11
	VBROADCASTSD b1c+80(FP), Y12
	VBROADCASTSD b2c+88(FP), Y13
	VBROADCASTSD tau+96(FP), Y0
	MOVQ $0x3FF0000000000000, AX // 1.0
	MOVQ b1c+80(FP), R11
	XORQ AX, R11                 // R11 = 0 iff b1c == 1
	MOVQ AX, X1
	VBROADCASTSD X1, Y1
	VSUBPD Y8, Y1, Y14           // 1-beta1
	VSUBPD Y9, Y1, Y15           // 1-beta2
	VSUBPD Y0, Y1, Y5            // 1-tau
	MOVQ CX, DX
	SHRQ $2, DX
	JZ   adamtail

adamloop:
	VMOVUPD (SI), Y1            // g
	VMULPD (R8), Y8, Y2         // beta1*m
	VMULPD Y14, Y1, Y4          // (1-beta1)*g
	VADDPD Y4, Y2, Y2           // m'
	VMULPD Y15, Y1, Y4          // (1-beta2)*g
	VMULPD Y1, Y4, Y4           // (1-beta2)*g*g
	VMULPD (R9), Y9, Y3         // beta2*v
	VADDPD Y4, Y3, Y3           // v'
	VMOVUPD Y2, (R8)
	VMOVUPD Y3, (R9)
	TESTQ R11, R11
	JZ   adamvhat
	VDIVPD Y12, Y2, Y2          // mHat = m'/b1c

adamvhat:
	VDIVPD Y13, Y3, Y3          // vHat = v'/b2c
	VSQRTPD Y3, Y3
	VADDPD Y11, Y3, Y3          // sqrt(vHat)+eps
	VMULPD Y10, Y2, Y2          // lr*mHat
	VDIVPD Y3, Y2, Y2           // step
	VMOVUPD (DI), Y7
	VSUBPD Y2, Y7, Y7
	VMOVUPD Y7, (DI)
	VMULPD Y7, Y0, Y1           // tau*p'
	VMULPD (R10), Y5, Y2        // (1-tau)*tgt
	VADDPD Y2, Y1, Y1
	VMOVUPD Y1, (R10)
	ADDQ $32, DI
	ADDQ $32, R10
	ADDQ $32, SI
	ADDQ $32, R8
	ADDQ $32, R9
	DECQ DX
	JNZ  adamloop

adamtail:
	ANDQ $3, CX
	JZ   adamdone

adamstail:
	VMOVSD (SI), X1
	VMULSD (R8), X8, X2
	VMULSD X14, X1, X4
	VADDSD X4, X2, X2
	VMULSD X15, X1, X4
	VMULSD X1, X4, X4
	VMULSD (R9), X9, X3
	VADDSD X4, X3, X3
	VMOVSD X2, (R8)
	VMOVSD X3, (R9)
	TESTQ R11, R11
	JZ   adamsvhat
	VDIVSD X12, X2, X2

adamsvhat:
	VDIVSD X13, X3, X3
	VSQRTSD X3, X3, X3
	VADDSD X11, X3, X3
	VMULSD X10, X2, X2
	VDIVSD X3, X2, X2
	VMOVSD (DI), X7
	VSUBSD X2, X7, X7
	VMOVSD X7, (DI)
	VMULSD X7, X0, X1
	VMULSD (R10), X5, X2
	VADDSD X2, X1, X1
	VMOVSD X1, (R10)
	ADDQ $8, DI
	ADDQ $8, R10
	ADDQ $8, SI
	ADDQ $8, R8
	ADDQ $8, R9
	DECQ CX
	JNZ  adamstail

adamdone:
	VZEROUPPER
	RET

// func scaleasm(f float64, x *float64, n int) (sq float64)
//
// x *= f, returning Σ x² of the scaled values, summed by FMA in
// sixteen lane chains that combine at the end — an order of the
// kernel's own, which is all AdamStep's clip-norm skip needs.
TEXT ·scaleasm(SB), NOSPLIT, $0-32
	VBROADCASTSD f+0(FP), Y0
	MOVQ x+8(FP), DI
	MOVQ n+16(FP), CX
	VXORPD Y4, Y4, Y4
	VXORPD Y5, Y5, Y5
	VXORPD Y6, Y6, Y6
	VXORPD Y7, Y7, Y7
	VXORPD X8, X8, X8            // the scalar tail's sum (a VEX.128 op zeroes its destination's upper half)
	MOVQ CX, DX
	SHRQ $4, DX
	JZ   scalevec

scaleloop4:
	VMULPD (DI), Y0, Y1
	VMULPD 32(DI), Y0, Y2
	VMOVUPD Y1, (DI)
	VMOVUPD Y2, 32(DI)
	VFMADD231PD Y1, Y1, Y4
	VFMADD231PD Y2, Y2, Y5
	VMULPD 64(DI), Y0, Y1
	VMULPD 96(DI), Y0, Y2
	VMOVUPD Y1, 64(DI)
	VMOVUPD Y2, 96(DI)
	VFMADD231PD Y1, Y1, Y6
	VFMADD231PD Y2, Y2, Y7
	ADDQ $128, DI
	DECQ DX
	JNZ  scaleloop4

scalevec:
	MOVQ CX, DX
	ANDQ $15, CX
	SHRQ $2, CX
	JZ   scaletail

scalevecloop:
	VMULPD (DI), Y0, Y1
	VMOVUPD Y1, (DI)
	VFMADD231PD Y1, Y1, Y4
	ADDQ $32, DI
	DECQ CX
	JNZ  scalevecloop

scaletail:
	ANDQ $3, DX
	JZ   scalesum

scalestail:
	VMOVSD (DI), X1
	VMULSD X0, X1, X1
	VMOVSD X1, (DI)
	VFMADD231SD X1, X1, X8
	ADDQ $8, DI
	DECQ DX
	JNZ  scalestail

scalesum:
	VADDPD Y8, Y4, Y4
	VADDPD Y5, Y4, Y4
	VADDPD Y7, Y6, Y6
	VADDPD Y6, Y4, Y4
	VEXTRACTF128 $1, Y4, X5
	VADDPD X5, X4, X4
	VHADDPD X4, X4, X4
	VMOVSD X4, sq+24(FP)
	VZEROUPPER
	RET

// ---- float32 optimizer kernels: same structure as the float64
// kernels above, with 8 lanes per YMM register instead of 4 and PS/SS
// arithmetic.

// func adamasmf32(p, grad, m, v, tgt *float32, n int, beta1, beta2, lr, eps, b1c, b2c, tau float32)
//
// adamasm at float32, 8 floats per iteration. VSQRTPS/VSQRTSS round
// once where the Go loop goes through float64 and narrows; with 53
// bits for a 24-bit square root the two agree.
TEXT ·adamasmf32(SB), NOSPLIT, $0-76
	MOVQ p+0(FP), DI
	MOVQ grad+8(FP), SI
	MOVQ m+16(FP), R8
	MOVQ v+24(FP), R9
	MOVQ tgt+32(FP), R10
	MOVQ n+40(FP), CX
	VBROADCASTSS beta1+48(FP), Y8
	VBROADCASTSS beta2+52(FP), Y9
	VBROADCASTSS lr+56(FP), Y10
	VBROADCASTSS eps+60(FP), Y11
	VBROADCASTSS b1c+64(FP), Y12
	VBROADCASTSS b2c+68(FP), Y13
	VBROADCASTSS tau+72(FP), Y0
	MOVL $0x3F800000, AX // 1.0f
	MOVL b1c+64(FP), R11
	XORL AX, R11                 // R11 = 0 iff b1c == 1
	MOVL AX, X1
	VBROADCASTSS X1, Y1
	VSUBPS Y8, Y1, Y14           // 1-beta1
	VSUBPS Y9, Y1, Y15           // 1-beta2
	VSUBPS Y0, Y1, Y5            // 1-tau
	MOVQ CX, DX
	SHRQ $3, DX
	JZ   f32adamtail

f32adamloop:
	VMOVUPS (SI), Y1            // g
	VMULPS (R8), Y8, Y2         // beta1*m
	VMULPS Y14, Y1, Y4          // (1-beta1)*g
	VADDPS Y4, Y2, Y2           // m'
	VMULPS Y15, Y1, Y4          // (1-beta2)*g
	VMULPS Y1, Y4, Y4           // (1-beta2)*g*g
	VMULPS (R9), Y9, Y3         // beta2*v
	VADDPS Y4, Y3, Y3           // v'
	VMOVUPS Y2, (R8)
	VMOVUPS Y3, (R9)
	TESTL R11, R11
	JZ   f32adamvhat
	VDIVPS Y12, Y2, Y2          // mHat = m'/b1c

f32adamvhat:
	VDIVPS Y13, Y3, Y3          // vHat = v'/b2c
	VSQRTPS Y3, Y3
	VADDPS Y11, Y3, Y3          // sqrt(vHat)+eps
	VMULPS Y10, Y2, Y2          // lr*mHat
	VDIVPS Y3, Y2, Y2           // step
	VMOVUPS (DI), Y7
	VSUBPS Y2, Y7, Y7
	VMOVUPS Y7, (DI)
	VMULPS Y7, Y0, Y1           // tau*p'
	VMULPS (R10), Y5, Y2        // (1-tau)*tgt
	VADDPS Y2, Y1, Y1
	VMOVUPS Y1, (R10)
	ADDQ $32, DI
	ADDQ $32, R10
	ADDQ $32, SI
	ADDQ $32, R8
	ADDQ $32, R9
	DECQ DX
	JNZ  f32adamloop

f32adamtail:
	ANDQ $7, CX
	JZ   f32adamdone

f32adamstail:
	VMOVSS (SI), X1
	VMULSS (R8), X8, X2
	VMULSS X14, X1, X4
	VADDSS X4, X2, X2
	VMULSS X15, X1, X4
	VMULSS X1, X4, X4
	VMULSS (R9), X9, X3
	VADDSS X4, X3, X3
	VMOVSS X2, (R8)
	VMOVSS X3, (R9)
	TESTL R11, R11
	JZ   f32adamsvhat
	VDIVSS X12, X2, X2

f32adamsvhat:
	VDIVSS X13, X3, X3
	VSQRTSS X3, X3, X3
	VADDSS X11, X3, X3
	VMULSS X10, X2, X2
	VDIVSS X3, X2, X2
	VMOVSS (DI), X7
	VSUBSS X2, X7, X7
	VMOVSS X7, (DI)
	VMULSS X7, X0, X1
	VMULSS (R10), X5, X2
	VADDSS X2, X1, X1
	VMOVSS X1, (R10)
	ADDQ $4, DI
	ADDQ $4, R10
	ADDQ $4, SI
	ADDQ $4, R8
	ADDQ $4, R9
	DECQ CX
	JNZ  f32adamstail

f32adamdone:
	VZEROUPPER
	RET

// func scaleasmf32(f float32, x *float32, n int) (sq float64)
//
// x *= f, returning Σ x² of the scaled values in float64: each lane
// is widened before its FMA, so every square is exact.
TEXT ·scaleasmf32(SB), NOSPLIT, $0-32
	VBROADCASTSS f+0(FP), Y0
	MOVQ x+8(FP), DI
	MOVQ n+16(FP), CX
	VXORPD Y4, Y4, Y4
	VXORPD Y5, Y5, Y5
	VXORPD Y6, Y6, Y6
	VXORPD Y7, Y7, Y7
	VXORPD X8, X8, X8            // the scalar tail's own sum
	MOVQ CX, DX
	SHRQ $4, DX
	JZ   f32scalevec

f32scaleloop2:
	VMULPS (DI), Y0, Y1
	VMULPS 32(DI), Y0, Y2
	VMOVUPS Y1, (DI)
	VMOVUPS Y2, 32(DI)
	VCVTPS2PD X1, Y3
	VFMADD231PD Y3, Y3, Y4
	VEXTRACTF128 $1, Y1, X1
	VCVTPS2PD X1, Y3
	VFMADD231PD Y3, Y3, Y5
	VCVTPS2PD X2, Y3
	VFMADD231PD Y3, Y3, Y6
	VEXTRACTF128 $1, Y2, X2
	VCVTPS2PD X2, Y3
	VFMADD231PD Y3, Y3, Y7
	ADDQ $64, DI
	DECQ DX
	JNZ  f32scaleloop2

f32scalevec:
	MOVQ CX, DX
	ANDQ $15, CX
	SHRQ $3, CX
	JZ   f32scaletail
	VMULPS (DI), Y0, Y1
	VMOVUPS Y1, (DI)
	VCVTPS2PD X1, Y3
	VFMADD231PD Y3, Y3, Y4
	VEXTRACTF128 $1, Y1, X1
	VCVTPS2PD X1, Y3
	VFMADD231PD Y3, Y3, Y5
	ADDQ $32, DI

f32scaletail:
	ANDQ $7, DX
	JZ   f32scalesum

f32scalestail:
	VMOVSS (DI), X1
	VMULSS X0, X1, X1
	VMOVSS X1, (DI)
	VCVTSS2SD X1, X1, X1
	VFMADD231SD X1, X1, X8
	ADDQ $4, DI
	DECQ DX
	JNZ  f32scalestail

f32scalesum:
	VADDPD Y8, Y4, Y4
	VADDPD Y5, Y4, Y4
	VADDPD Y7, Y6, Y6
	VADDPD Y6, Y4, Y4
	VEXTRACTF128 $1, Y4, X5
	VADDPD X5, X4, X4
	VHADDPD X4, X4, X4
	VMOVSD X4, sq+24(FP)
	VZEROUPPER
	RET

// ---- batch layer kernels. tileoff holds the byte offset of every
// 16-bit lane of a 4-vector (128-byte) tile; the grad kernel compares
// it with the bytes left in a row to mask the row's last tile.

DATA tileoff<>+0(SB)/8, $0x0006000400020000
DATA tileoff<>+8(SB)/8, $0x000e000c000a0008
DATA tileoff<>+16(SB)/8, $0x0016001400120010
DATA tileoff<>+24(SB)/8, $0x001e001c001a0018
DATA tileoff<>+32(SB)/8, $0x0026002400220020
DATA tileoff<>+40(SB)/8, $0x002e002c002a0028
DATA tileoff<>+48(SB)/8, $0x0036003400320030
DATA tileoff<>+56(SB)/8, $0x003e003c003a0038
DATA tileoff<>+64(SB)/8, $0x0046004400420040
DATA tileoff<>+72(SB)/8, $0x004e004c004a0048
DATA tileoff<>+80(SB)/8, $0x0056005400520050
DATA tileoff<>+88(SB)/8, $0x005e005c005a0058
DATA tileoff<>+96(SB)/8, $0x0066006400620060
DATA tileoff<>+104(SB)/8, $0x006e006c006a0068
DATA tileoff<>+112(SB)/8, $0x0076007400720070
DATA tileoff<>+120(SB)/8, $0x007e007c007a0078
GLOBL tileoff<>(SB), RODATA|NOPTR, $128

// float64: 4 lanes per vector.
#define ES 8
#define LOGES 3
#define VMOVU VMOVUPD
#define VMOVS VMOVSD
#define VFMAP VFMADD231PD
#define VFMAS VFMADD231SD
#define VADDP VADDPD
#define VADDS VADDSD
#define VHADD VHADDPD
#define VBCAST VBROADCASTSD
#define VMASKMOV VMASKMOVPD
#define MOVE MOVQ
#define SHLE SHLQ
#define NEGE NEGQ
#define VMULP VMULPD
#define VANDP VANDPD
#define VANDNP VANDNPD
#define VORP VORPD
#define SIGNBITS $0x8000000000000000
#define ONEBITS $0x3FF0000000000000
#define HALFBITS $0x3FE0000000000000

// func rows4asm(w, x, bias, z *float64, n, m int)
TEXT ·rows4asm(SB), NOSPLIT, $0-48
	MOVQ w+0(FP), SI
	MOVQ x+8(FP), R8
	MOVQ bias+16(FP), BX
	MOVQ z+24(FP), DI
	MOVQ n+32(FP), CX
	MOVQ m+40(FP), DX
#include "kernel_rows4_amd64.h"

// func gradasm(dz, x, dw, db *float64, scratch *uint64, rows, in, out int)
TEXT ·gradasm(SB), NOSPLIT, $0-64
	MOVQ dz+0(FP), R8
	MOVQ dw+16(FP), SI
	MOVQ db+24(FP), BX
	MOVQ scratch+32(FP), R9
	MOVQ rows+40(FP), DX
	MOVQ in+48(FP), R12
	MOVQ out+56(FP), R15
#include "kernel_grad_amd64.h"

// func reluasm(z, y *float64, n int)
TEXT ·reluasm(SB), NOSPLIT, $0-24
	MOVQ z+0(FP), SI
	MOVQ y+8(FP), DI
	MOVQ n+16(FP), CX
#include "kernel_relu_amd64.h"

#define RELU_DERIV

// func reluderivasm(dY, z, dz *float64, n int)
TEXT ·reluderivasm(SB), NOSPLIT, $0-32
	MOVQ dY+0(FP), R8
	MOVQ z+8(FP), SI
	MOVQ dz+16(FP), DI
	MOVQ n+24(FP), CX
#include "kernel_relu_amd64.h"

#undef RELU_DERIV
#undef ES
#undef LOGES
#undef VMOVU
#undef VMOVS
#undef VFMAP
#undef VFMAS
#undef VADDP
#undef VADDS
#undef VHADD
#undef VBCAST
#undef VMASKMOV
#undef MOVE
#undef SHLE
#undef NEGE
#undef VMULP
#undef VANDP
#undef VANDNP
#undef VORP
#undef SIGNBITS
#undef ONEBITS
#undef HALFBITS

// float32: 8 lanes per vector, so the lane reduce is one level deeper.
#define LANES8
#define ES 4
#define LOGES 2
#define VMOVU VMOVUPS
#define VMOVS VMOVSS
#define VFMAP VFMADD231PS
#define VFMAS VFMADD231SS
#define VADDP VADDPS
#define VADDS VADDSS
#define VHADD VHADDPS
#define VBCAST VBROADCASTSS
#define VMASKMOV VMASKMOVPS
#define MOVE MOVL
#define SHLE SHLL
#define NEGE NEGL
#define VMULP VMULPS
#define VANDP VANDPS
#define VANDNP VANDNPS
#define VORP VORPS
#define SIGNBITS $0x80000000
#define ONEBITS $0x3F800000
#define HALFBITS $0x3F000000

// func rows4asmf32(w, x, bias, z *float32, n, m int)
TEXT ·rows4asmf32(SB), NOSPLIT, $0-48
	MOVQ w+0(FP), SI
	MOVQ x+8(FP), R8
	MOVQ bias+16(FP), BX
	MOVQ z+24(FP), DI
	MOVQ n+32(FP), CX
	MOVQ m+40(FP), DX
#include "kernel_rows4_amd64.h"

// func gradasmf32(dz, x, dw, db *float32, scratch *uint64, rows, in, out int)
TEXT ·gradasmf32(SB), NOSPLIT, $0-64
	MOVQ dz+0(FP), R8
	MOVQ dw+16(FP), SI
	MOVQ db+24(FP), BX
	MOVQ scratch+32(FP), R9
	MOVQ rows+40(FP), DX
	MOVQ in+48(FP), R12
	MOVQ out+56(FP), R15
#include "kernel_grad_amd64.h"

// func reluasmf32(z, y *float32, n int)
TEXT ·reluasmf32(SB), NOSPLIT, $0-24
	MOVQ z+0(FP), SI
	MOVQ y+8(FP), DI
	MOVQ n+16(FP), CX
#include "kernel_relu_amd64.h"

#define RELU_DERIV

// func reluderivasmf32(dY, z, dz *float32, n int)
TEXT ·reluderivasmf32(SB), NOSPLIT, $0-32
	MOVQ dY+0(FP), R8
	MOVQ z+8(FP), SI
	MOVQ dz+16(FP), DI
	MOVQ n+24(FP), CX
#include "kernel_relu_amd64.h"
