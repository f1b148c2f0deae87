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

// func adamasm(p, grad, m, v *float64, n int, beta1, beta2, lr, eps, b1c, b2c float64)
//
// One Adam update over a parameter slice, 4 doubles per iteration.
// The arithmetic (two moment EMAs, bias-corrected divides, sqrt)
// matches the scalar Go loop operation for operation.
TEXT ·adamasm(SB), NOSPLIT, $0-88
	MOVQ p+0(FP), DI
	MOVQ grad+8(FP), SI
	MOVQ m+16(FP), R8
	MOVQ v+24(FP), R9
	MOVQ n+32(FP), CX
	VBROADCASTSD beta1+40(FP), Y8
	VBROADCASTSD beta2+48(FP), Y9
	VBROADCASTSD lr+56(FP), Y10
	VBROADCASTSD eps+64(FP), Y11
	VBROADCASTSD b1c+72(FP), Y12
	VBROADCASTSD b2c+80(FP), Y13
	// Y14 = 1-beta1, Y15 = 1-beta2
	MOVQ $0x3FF0000000000000, AX // 1.0
	MOVQ AX, X0
	VBROADCASTSD X0, Y0
	VSUBPD Y8, Y0, Y14
	VSUBPD Y9, Y0, Y15
	MOVQ CX, DX
	SHRQ $2, DX
	JZ   adamtail

adamloop:
	// Mirrors the scalar Go loop operation for operation (no FMA
	// contraction) so results are bit-identical.
	VMOVUPD (SI), Y1            // g
	VMOVUPD (R8), Y2            // m
	VMOVUPD (R9), Y3            // v
	VMULPD Y8, Y2, Y2           // beta1*m
	VMULPD Y14, Y1, Y4          // (1-beta1)*g
	VADDPD Y4, Y2, Y2           // m'
	VMULPD Y15, Y1, Y4          // (1-beta2)*g
	VMULPD Y1, Y4, Y4           // (1-beta2)*g*g
	VMULPD Y9, Y3, Y3           // beta2*v
	VADDPD Y4, Y3, Y3           // v'
	VMOVUPD Y2, (R8)
	VMOVUPD Y3, (R9)
	VDIVPD Y12, Y2, Y5          // mHat = m'/b1c
	VDIVPD Y13, Y3, Y6          // vHat = v'/b2c
	VSQRTPD Y6, Y6
	VADDPD Y11, Y6, Y6          // sqrt(vHat)+eps
	VMULPD Y10, Y5, Y5          // lr*mHat
	VDIVPD Y6, Y5, Y5           // step
	VMOVUPD (DI), Y7
	VSUBPD Y5, Y7, Y7
	VMOVUPD Y7, (DI)
	ADDQ $32, DI
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
	VMOVSD (R8), X2
	VMOVSD (R9), X3
	VMULSD X8, X2, X2
	VMULSD X14, X1, X4
	VADDSD X4, X2, X2
	VMULSD X15, X1, X4
	VMULSD X1, X4, X4
	VMULSD X9, X3, X3
	VADDSD X4, X3, X3
	VMOVSD X2, (R8)
	VMOVSD X3, (R9)
	VDIVSD X12, X2, X5
	VDIVSD X13, X3, X6
	VSQRTSD X6, X6, X6
	VADDSD X11, X6, X6
	VMULSD X10, X5, X5
	VDIVSD X6, X5, X5
	VMOVSD (DI), X7
	VSUBSD X5, X7, X7
	VMOVSD X7, (DI)
	ADDQ $8, DI
	ADDQ $8, SI
	ADDQ $8, R8
	ADDQ $8, R9
	DECQ CX
	JNZ  adamstail

adamdone:
	VZEROUPPER
	RET

// func axpbyasm(tau float64, x, y *float64, n int)
//
// y = tau*x + (1-tau)*y, with mul/mul/add kept separate so the result
// is bit-identical to the scalar SoftUpdate loop.
TEXT ·axpbyasm(SB), NOSPLIT, $0-32
	VBROADCASTSD tau+0(FP), Y0
	MOVQ x+8(FP), SI
	MOVQ y+16(FP), DI
	MOVQ n+24(FP), CX
	// Y8 = 1-tau
	MOVQ $0x3FF0000000000000, AX
	MOVQ AX, X1
	VBROADCASTSD X1, Y1
	VSUBPD Y0, Y1, Y8
	MOVQ CX, DX
	SHRQ $2, DX
	JZ   axpbytail

axpbyloop:
	VMULPD (SI), Y0, Y2         // tau*x
	VMULPD (DI), Y8, Y3         // (1-tau)*y
	VADDPD Y3, Y2, Y2
	VMOVUPD Y2, (DI)
	ADDQ $32, SI
	ADDQ $32, DI
	DECQ DX
	JNZ  axpbyloop

axpbytail:
	ANDQ $3, CX
	JZ   axpbydone

axpbystail:
	VMOVSD (SI), X2
	VMULSD X0, X2, X2
	VMOVSD (DI), X3
	VMULSD X8, X3, X3
	VADDSD X3, X2, X2
	VMOVSD X2, (DI)
	ADDQ $8, SI
	ADDQ $8, DI
	DECQ CX
	JNZ  axpbystail

axpbydone:
	VZEROUPPER
	RET

// func scaleasm(f float64, x *float64, n int)
//
// x *= f.
TEXT ·scaleasm(SB), NOSPLIT, $0-24
	VBROADCASTSD f+0(FP), Y0
	MOVQ x+8(FP), DI
	MOVQ n+16(FP), CX
	MOVQ CX, DX
	SHRQ $2, DX
	JZ   scaletail

scaleloop:
	VMULPD (DI), Y0, Y1
	VMOVUPD Y1, (DI)
	ADDQ $32, DI
	DECQ DX
	JNZ  scaleloop

scaletail:
	ANDQ $3, CX
	JZ   scaledone

scalestail:
	VMOVSD (DI), X1
	VMULSD X0, X1, X1
	VMOVSD X1, (DI)
	ADDQ $8, DI
	DECQ CX
	JNZ  scalestail

scaledone:
	VZEROUPPER
	RET

// ---- float32 optimizer kernels: same structure as the float64
// kernels above, with 8 lanes per YMM register instead of 4 and PS/SS
// arithmetic. The f32 path has no bit-parity contract with the pure-Go
// fallbacks (FMA contraction and reassociated sums round differently).

// func adamasmf32(p, grad, m, v *float32, n int, beta1, beta2, lr, eps, b1c, b2c float32)
//
// One Adam update over a float32 parameter slice, 8 floats per
// iteration. Mirrors the AdamStep scalar loop (no FMA contraction in
// the EMA updates); VSQRTSS/VSQRTPS round once where the Go fallback
// rounds through float64, a ≤1-ulp difference the f32 contract
// allows.
TEXT ·adamasmf32(SB), NOSPLIT, $0-64
	MOVQ p+0(FP), DI
	MOVQ grad+8(FP), SI
	MOVQ m+16(FP), R8
	MOVQ v+24(FP), R9
	MOVQ n+32(FP), CX
	VBROADCASTSS beta1+40(FP), Y8
	VBROADCASTSS beta2+44(FP), Y9
	VBROADCASTSS lr+48(FP), Y10
	VBROADCASTSS eps+52(FP), Y11
	VBROADCASTSS b1c+56(FP), Y12
	VBROADCASTSS b2c+60(FP), Y13
	// Y14 = 1-beta1, Y15 = 1-beta2
	MOVL $0x3F800000, AX // 1.0f
	MOVL AX, X0
	VBROADCASTSS X0, Y0
	VSUBPS Y8, Y0, Y14
	VSUBPS Y9, Y0, Y15
	MOVQ CX, DX
	SHRQ $3, DX
	JZ   f32adamtail

f32adamloop:
	VMOVUPS (SI), Y1            // g
	VMOVUPS (R8), Y2            // m
	VMOVUPS (R9), Y3            // v
	VMULPS Y8, Y2, Y2           // beta1*m
	VMULPS Y14, Y1, Y4          // (1-beta1)*g
	VADDPS Y4, Y2, Y2           // m'
	VMULPS Y15, Y1, Y4          // (1-beta2)*g
	VMULPS Y1, Y4, Y4           // (1-beta2)*g*g
	VMULPS Y9, Y3, Y3           // beta2*v
	VADDPS Y4, Y3, Y3           // v'
	VMOVUPS Y2, (R8)
	VMOVUPS Y3, (R9)
	VDIVPS Y12, Y2, Y5          // mHat = m'/b1c
	VDIVPS Y13, Y3, Y6          // vHat = v'/b2c
	VSQRTPS Y6, Y6
	VADDPS Y11, Y6, Y6          // sqrt(vHat)+eps
	VMULPS Y10, Y5, Y5          // lr*mHat
	VDIVPS Y6, Y5, Y5           // step
	VMOVUPS (DI), Y7
	VSUBPS Y5, Y7, Y7
	VMOVUPS Y7, (DI)
	ADDQ $32, DI
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
	VMOVSS (R8), X2
	VMOVSS (R9), X3
	VMULSS X8, X2, X2
	VMULSS X14, X1, X4
	VADDSS X4, X2, X2
	VMULSS X15, X1, X4
	VMULSS X1, X4, X4
	VMULSS X9, X3, X3
	VADDSS X4, X3, X3
	VMOVSS X2, (R8)
	VMOVSS X3, (R9)
	VDIVSS X12, X2, X5
	VDIVSS X13, X3, X6
	VSQRTSS X6, X6, X6
	VADDSS X11, X6, X6
	VMULSS X10, X5, X5
	VDIVSS X6, X5, X5
	VMOVSS (DI), X7
	VSUBSS X5, X7, X7
	VMOVSS X7, (DI)
	ADDQ $4, DI
	ADDQ $4, SI
	ADDQ $4, R8
	ADDQ $4, R9
	DECQ CX
	JNZ  f32adamstail

f32adamdone:
	VZEROUPPER
	RET

// func axpbyasmf32(tau float32, x, y *float32, n int)
//
// y = tau*x + (1-tau)*y — the f32 soft-update kernel.
TEXT ·axpbyasmf32(SB), NOSPLIT, $0-32
	VBROADCASTSS tau+0(FP), Y0
	MOVQ x+8(FP), SI
	MOVQ y+16(FP), DI
	MOVQ n+24(FP), CX
	// Y8 = 1-tau
	MOVL $0x3F800000, AX
	MOVL AX, X1
	VBROADCASTSS X1, Y1
	VSUBPS Y0, Y1, Y8
	MOVQ CX, DX
	SHRQ $3, DX
	JZ   f32axpbytail

f32axpbyloop:
	VMULPS (SI), Y0, Y2         // tau*x
	VMULPS (DI), Y8, Y3         // (1-tau)*y
	VADDPS Y3, Y2, Y2
	VMOVUPS Y2, (DI)
	ADDQ $32, SI
	ADDQ $32, DI
	DECQ DX
	JNZ  f32axpbyloop

f32axpbytail:
	ANDQ $7, CX
	JZ   f32axpbydone

f32axpbystail:
	VMOVSS (SI), X2
	VMULSS X0, X2, X2
	VMOVSS (DI), X3
	VMULSS X8, X3, X3
	VADDSS X3, X2, X2
	VMOVSS X2, (DI)
	ADDQ $4, SI
	ADDQ $4, DI
	DECQ CX
	JNZ  f32axpbystail

f32axpbydone:
	VZEROUPPER
	RET

// func scaleasmf32(f float32, x *float32, n int)
//
// x *= f.
TEXT ·scaleasmf32(SB), NOSPLIT, $0-24
	VBROADCASTSS f+0(FP), Y0
	MOVQ x+8(FP), DI
	MOVQ n+16(FP), CX
	MOVQ CX, DX
	SHRQ $3, DX
	JZ   f32scaletail

f32scaleloop:
	VMULPS (DI), Y0, Y1
	VMOVUPS Y1, (DI)
	ADDQ $32, DI
	DECQ DX
	JNZ  f32scaleloop

f32scaletail:
	ANDQ $7, CX
	JZ   f32scaledone

f32scalestail:
	VMOVSS (DI), X1
	VMULSS X0, X1, X1
	VMOVSS X1, (DI)
	ADDQ $4, DI
	DECQ CX
	JNZ  f32scalestail

f32scaledone:
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
#define HADDMORE(X)
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
#undef HADDMORE
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
#define ES 4
#define LOGES 2
#define VMOVU VMOVUPS
#define VMOVS VMOVSS
#define VFMAP VFMADD231PS
#define VFMAS VFMADD231SS
#define VADDP VADDPS
#define VADDS VADDSS
#define VHADD VHADDPS
#define HADDMORE(X) VHADDPS X, X, X
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
