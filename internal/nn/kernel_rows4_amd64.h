// Body of the four-row product kernel, included once per precision by
// simd_amd64.s with the element macros (ES, VFMAP, ...) defined.
//
//	z[r*m+o] = bias[o] + w[o*n:(o+1)*n] · x[r*n:(r+1)*n]    r = 0..3, o = 0..m-1
//
// It is both the forward pass of one 4-row group (w = W, m = Out) and
// its input-gradient pass (w = Wᵀ, x = dz, bias = nil, m = In).
//
// Register tile: 4 rows × 2 outputs = 8 YMM accumulators; each loop
// iteration loads 2 weight vectors and 4 input vectors for 8 FMAs. An
// odd last output runs a 4 × 1 tile.
//
// Per element the arithmetic is the nn kernel contract (doc.go): lane
// j of the accumulator sums the products at indices ≡ j (mod lanes)
// in ascending order by FMA, the lanes reduce as (l0+l2)+(l1+l3) (f32:
// the same pattern one level deeper), the n%lanes tail continues by
// scalar FMA in ascending order, and the bias is added last.
//
// On entry: SI = w, R8 = x, BX = bias (0: none), DI = z, CX = n, DX = m.

// REDUCE folds the lanes of accumulator Y into the low element of X
// (the same register's low half).
#define REDUCE(Y, X) \
	VEXTRACTF128 $1, Y, X12; \
	VADDP X12, X, X; \
	VHADD X, X, X; \
	HADDMORE(X)

	MOVQ CX, R12
	SHLQ $LOGES, R12          // R12 = bytes per w row and per x row
	MOVQ DX, R13
	SHLQ $LOGES, R13          // R13 = bytes per z row
	MOVQ R12, CX
	ANDQ $31, CX              // CX = tail bytes after the whole vectors
	MOVQ R12, AX
	SUBQ CX, AX               // AX = bytes in whole vectors
	// Row pointers address the END of the vector part, so the vector
	// loop can count a negative index up to zero and the tail can
	// continue upward from it.
	ADDQ AX, R8
	LEAQ (R8)(R12*1), R9
	LEAQ (R9)(R12*1), R10
	LEAQ (R10)(R12*1), R11
	ADDQ AX, SI

pair:
	CMPQ DX, $2
	JLT  single
	LEAQ (SI)(R12*1), R14     // w row o+1
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3
	VXORPD Y4, Y4, Y4
	VXORPD Y5, Y5, Y5
	VXORPD Y6, Y6, Y6
	VXORPD Y7, Y7, Y7
	MOVQ CX, AX
	SUBQ R12, AX              // AX = -(bytes in whole vectors)
	JZ   pairreduce

pairvec:
	VMOVU (SI)(AX*1), Y8      // w row o
	VMOVU (R14)(AX*1), Y9     // w row o+1
	VMOVU (R8)(AX*1), Y10
	VFMAP Y10, Y8, Y0
	VFMAP Y10, Y9, Y4
	VMOVU (R9)(AX*1), Y11
	VFMAP Y11, Y8, Y1
	VFMAP Y11, Y9, Y5
	VMOVU (R10)(AX*1), Y10
	VFMAP Y10, Y8, Y2
	VFMAP Y10, Y9, Y6
	VMOVU (R11)(AX*1), Y11
	VFMAP Y11, Y8, Y3
	VFMAP Y11, Y9, Y7
	ADDQ $32, AX
	JNZ  pairvec

pairreduce:
	REDUCE(Y0, X0)
	REDUCE(Y1, X1)
	REDUCE(Y2, X2)
	REDUCE(Y3, X3)
	REDUCE(Y4, X4)
	REDUCE(Y5, X5)
	REDUCE(Y6, X6)
	REDUCE(Y7, X7)
	TESTQ CX, CX
	JZ   pairbias
	XORQ AX, AX

pairtail:
	VMOVS (SI)(AX*1), X8
	VMOVS (R14)(AX*1), X9
	VMOVS (R8)(AX*1), X10
	VFMAS X10, X8, X0
	VFMAS X10, X9, X4
	VMOVS (R9)(AX*1), X11
	VFMAS X11, X8, X1
	VFMAS X11, X9, X5
	VMOVS (R10)(AX*1), X10
	VFMAS X10, X8, X2
	VFMAS X10, X9, X6
	VMOVS (R11)(AX*1), X11
	VFMAS X11, X8, X3
	VFMAS X11, X9, X7
	ADDQ $ES, AX
	CMPQ AX, CX
	JLT  pairtail

pairbias:
	TESTQ BX, BX
	JZ   pairstore
	VMOVS (BX), X8
	VMOVS ES(BX), X9
	VADDS X0, X8, X0
	VADDS X1, X8, X1
	VADDS X2, X8, X2
	VADDS X3, X8, X3
	VADDS X4, X9, X4
	VADDS X5, X9, X5
	VADDS X6, X9, X6
	VADDS X7, X9, X7
	ADDQ $(2*ES), BX

pairstore:
	LEAQ (DI)(R13*2), AX
	VMOVS X0, (DI)
	VMOVS X4, ES(DI)
	VMOVS X1, (DI)(R13*1)
	VMOVS X5, ES(DI)(R13*1)
	VMOVS X2, (AX)
	VMOVS X6, ES(AX)
	VMOVS X3, (AX)(R13*1)
	VMOVS X7, ES(AX)(R13*1)
	ADDQ $(2*ES), DI
	LEAQ (SI)(R12*2), SI
	SUBQ $2, DX
	JMP  pair

single:
	TESTQ DX, DX
	JZ   done
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3
	MOVQ CX, AX
	SUBQ R12, AX
	JZ   singlereduce

singlevec:
	VMOVU (SI)(AX*1), Y8
	VFMAP (R8)(AX*1), Y8, Y0
	VFMAP (R9)(AX*1), Y8, Y1
	VFMAP (R10)(AX*1), Y8, Y2
	VFMAP (R11)(AX*1), Y8, Y3
	ADDQ $32, AX
	JNZ  singlevec

singlereduce:
	REDUCE(Y0, X0)
	REDUCE(Y1, X1)
	REDUCE(Y2, X2)
	REDUCE(Y3, X3)
	TESTQ CX, CX
	JZ   singlebias
	XORQ AX, AX

singletail:
	VMOVS (SI)(AX*1), X8
	VMOVS (R8)(AX*1), X10
	VFMAS X10, X8, X0
	VMOVS (R9)(AX*1), X11
	VFMAS X11, X8, X1
	VMOVS (R10)(AX*1), X10
	VFMAS X10, X8, X2
	VMOVS (R11)(AX*1), X11
	VFMAS X11, X8, X3
	ADDQ $ES, AX
	CMPQ AX, CX
	JLT  singletail

singlebias:
	TESTQ BX, BX
	JZ   singlestore
	VMOVS (BX), X8
	VADDS X0, X8, X0
	VADDS X1, X8, X1
	VADDS X2, X8, X2
	VADDS X3, X8, X3

singlestore:
	LEAQ (DI)(R13*2), AX
	VMOVS X0, (DI)
	VMOVS X1, (DI)(R13*1)
	VMOVS X2, (AX)
	VMOVS X3, (AX)(R13*1)

done:
	VZEROUPPER
	RET

#undef REDUCE
