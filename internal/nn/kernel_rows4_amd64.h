// Body of the four-row product kernel, included once per precision by
// simd_amd64.s with the element macros (ES, VFMAP, ...) defined, and
// LANES8 defined for float32.
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
// FMA in ascending order, and the bias is added last. What is free is
// the schedule around it: the reduce folds two accumulators per
// shuffle (below), the tail runs as vector FMAs on the reduced sums,
// and n == 1 skips the reduce altogether.
//
// The reduce. VPERM2F128 puts the low halves of two accumulators in
// one register and their high halves in another, so one add forms
// lane j + lane j+L/2 of both (l0+l2, l1+l3; f32 l0+l4, ...), then
// VHADD adds neighbouring pairs of two such registers at once. Rows 0
// and 2 share one register and rows 1 and 3 the other: at float64 the
// pair tile ends as [o, o+1 of row 0 | of row 2] and [row 1 | row 3];
// at float32 one more VHADD merges those into
// [row 0 | row 1 || row 2 | row 3] — every (row, output) sum next to its
// neighbour output, ready for 128- or 64-bit stores. Each element sees
// exactly the adds of the contract with its operands in the same
// positions as a one-accumulator-at-a-time reduce, NaN payloads
// included.
//
// On entry: SI = w, R8 = x, BX = bias (0: none), DI = z, CX = n, DX = m.

	MOVQ DX, R13
	SHLQ $LOGES, R13          // R13 = bytes per z row
	CMPQ CX, $1
	JEQ  outer
	MOVQ CX, R12
	SHLQ $LOGES, R12          // R12 = bytes per w row and per x row
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
	// Y0..Y3: output o, rows 0..3; Y4..Y7: output o+1.
	VPERM2F128 $0x20, Y2, Y0, Y8
	VPERM2F128 $0x31, Y2, Y0, Y9
	VADDP Y9, Y8, Y0          // o, rows 0 | 2
	VPERM2F128 $0x20, Y6, Y4, Y8
	VPERM2F128 $0x31, Y6, Y4, Y9
	VADDP Y9, Y8, Y4          // o+1, rows 0 | 2
	VHADD Y4, Y0, Y0
	VPERM2F128 $0x20, Y3, Y1, Y8
	VPERM2F128 $0x31, Y3, Y1, Y9
	VADDP Y9, Y8, Y1          // o, rows 1 | 3
	VPERM2F128 $0x20, Y7, Y5, Y8
	VPERM2F128 $0x31, Y7, Y5, Y9
	VADDP Y9, Y8, Y5          // o+1, rows 1 | 3
	VHADD Y5, Y1, Y1
#ifdef LANES8
	VHADDPS Y1, Y0, Y0        // [r0 o, o+1, r1 o, o+1 | r2 .. | r3 ..]
#endif
	TESTQ CX, CX
	JZ   pairbias
	XORQ AX, AX

pairtail:
	// The tail index's weights [w_o, w_o+1] against each row's input,
	// laid out like the sums.
#ifdef LANES8
	VMOVSS (SI)(AX*1), X8
	VINSERTPS $0x10, (R14)(AX*1), X8, X8
	VBROADCASTSD X8, Y8                  // [w_o, w_o+1] × 4
	VMOVSS (R8)(AX*1), X10
	VINSERTPS $0x10, (R9)(AX*1), X10, X10
	VMOVSS (R10)(AX*1), X11
	VINSERTPS $0x10, (R11)(AX*1), X11, X11
	VINSERTF128 $1, X11, Y10, Y10
	VPERMILPS $0x50, Y10, Y10            // [x0, x0, x1, x1 | x2, x2, x3, x3]
	VFMAP Y10, Y8, Y0
#else
	VMOVSD (SI)(AX*1), X8
	VMOVHPD (R14)(AX*1), X8, X8
	VINSERTF128 $1, X8, Y8, Y8           // [w_o, w_o+1, w_o, w_o+1]
	VMOVDDUP (R8)(AX*1), X10
	VMOVDDUP (R10)(AX*1), X11
	VINSERTF128 $1, X11, Y10, Y10        // [x0, x0, x2, x2]
	VFMAP Y10, Y8, Y0
	VMOVDDUP (R9)(AX*1), X10
	VMOVDDUP (R11)(AX*1), X11
	VINSERTF128 $1, X11, Y10, Y10        // [x1, x1, x3, x3]
	VFMAP Y10, Y8, Y1
#endif
	ADDQ $ES, AX
	CMPQ AX, CX
	JLT  pairtail

pairbias:
	TESTQ BX, BX
	JZ   pairstore
#ifdef LANES8
	VBROADCASTSD (BX), Y8     // [b_o, b_o+1] × 4
	VADDP Y0, Y8, Y0
#else
	VBROADCASTF128 (BX), Y8   // [b_o, b_o+1] × 2
	VADDP Y0, Y8, Y0
	VADDP Y1, Y8, Y1
#endif
	ADDQ $(2*ES), BX

pairstore:
	LEAQ (DI)(R13*2), AX
#ifdef LANES8
	// An (o, o+1) pair of floats is 64 bits.
	VMOVSD X0, (DI)
	VMOVHPD X0, (DI)(R13*1)
	VEXTRACTF128 $1, Y0, X0
	VMOVSD X0, (AX)
	VMOVHPD X0, (AX)(R13*1)
#else
	VMOVUPD X0, (DI)
	VMOVUPD X1, (DI)(R13*1)
	VEXTRACTF128 $1, Y0, (AX)
	VEXTRACTF128 $1, Y1, (AX)(R13*1)
#endif
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
	VPERM2F128 $0x20, Y2, Y0, Y8
	VPERM2F128 $0x31, Y2, Y0, Y9
	VADDP Y9, Y8, Y0          // rows 0 | 2
	VPERM2F128 $0x20, Y3, Y1, Y8
	VPERM2F128 $0x31, Y3, Y1, Y9
	VADDP Y9, Y8, Y1          // rows 1 | 3
	VHADD Y1, Y0, Y0          // f64: [r0, r1 | r2, r3]
#ifdef LANES8
	VHADDPS Y0, Y0, Y0        // [r0, r1, r0, r1 | r2, r3, r2, r3]
#endif
	TESTQ CX, CX
	JZ   singlebias
	XORQ AX, AX

singletail:
	VBCAST (SI)(AX*1), Y8
#ifdef LANES8
	VMOVSS (R8)(AX*1), X10
	VINSERTPS $0x10, (R9)(AX*1), X10, X10
	VMOVSS (R10)(AX*1), X11
	VINSERTPS $0x10, (R11)(AX*1), X11, X11
	VINSERTF128 $1, X11, Y10, Y10
	VPERMILPS $0x44, Y10, Y10            // [x0, x1, x0, x1 | x2, x3, x2, x3]
#else
	VMOVSD (R8)(AX*1), X10
	VMOVHPD (R9)(AX*1), X10, X10
	VMOVSD (R10)(AX*1), X11
	VMOVHPD (R11)(AX*1), X11, X11
	VINSERTF128 $1, X11, Y10, Y10        // [x0, x1, x2, x3]
#endif
	VFMAP Y10, Y8, Y0
	ADDQ $ES, AX
	CMPQ AX, CX
	JLT  singletail

singlebias:
	TESTQ BX, BX
	JZ   singlestore
	VBCAST (BX), Y8
	VADDP Y0, Y8, Y0

singlestore:
	LEAQ (DI)(R13*2), AX
#ifdef LANES8
	VMOVSS X0, (DI)
	VEXTRACTPS $1, X0, (DI)(R13*1)
	VEXTRACTF128 $1, Y0, X0
	VMOVSS X0, (AX)
	VEXTRACTPS $1, X0, (AX)(R13*1)
#else
	VMOVSD X0, (DI)
	VMOVHPD X0, (DI)(R13*1)
	VEXTRACTF128 $1, Y0, X0
	VMOVSD X0, (AX)
	VMOVHPD X0, (AX)(R13*1)
#endif
	JMP  done

outer:
	// n == 1: w is m × 1 and x is 4 × 1, so the lanes sum nothing, the
	// reduce is (+0 + +0) + (+0 + +0) = +0 and each element is its one
	// tail step, z[r*m+o] = bias[o] + fma(w[o], x[r], +0) — an outer
	// product, a vector of outputs per row.
	VBCAST (R8), Y12
	VBCAST ES(R8), Y13
	VBCAST (2*ES)(R8), Y14
	VBCAST (3*ES)(R8), Y15
	LEAQ (DI)(R13*1), R9      // z rows 1..3
	LEAQ (R9)(R13*1), R10
	LEAQ (R10)(R13*1), R11
	MOVQ R13, CX
	ANDQ $-32, CX             // CX = bytes in whole vectors
	XORQ AX, AX

outervec:
	CMPQ AX, CX
	JGE  outertail
	VMOVU (SI)(AX*1), Y8
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3
	VFMAP Y12, Y8, Y0
	VFMAP Y13, Y8, Y1
	VFMAP Y14, Y8, Y2
	VFMAP Y15, Y8, Y3
	TESTQ BX, BX
	JZ   outervecstore
	VMOVU (BX)(AX*1), Y9
	VADDP Y0, Y9, Y0
	VADDP Y1, Y9, Y1
	VADDP Y2, Y9, Y2
	VADDP Y3, Y9, Y3

outervecstore:
	VMOVU Y0, (DI)(AX*1)
	VMOVU Y1, (R9)(AX*1)
	VMOVU Y2, (R10)(AX*1)
	VMOVU Y3, (R11)(AX*1)
	ADDQ $32, AX
	JMP  outervec

outertail:
	CMPQ AX, R13
	JGE  done
	VMOVS (SI)(AX*1), X8
	VXORPD X0, X0, X0
	VXORPD X1, X1, X1
	VXORPD X2, X2, X2
	VXORPD X3, X3, X3
	VFMAS X12, X8, X0
	VFMAS X13, X8, X1
	VFMAS X14, X8, X2
	VFMAS X15, X8, X3
	TESTQ BX, BX
	JZ   outertailstore
	VMOVS (BX)(AX*1), X9
	VADDS X0, X9, X0
	VADDS X1, X9, X1
	VADDS X2, X9, X2
	VADDS X3, X9, X3

outertailstore:
	VMOVS X0, (DI)(AX*1)
	VMOVS X1, (R9)(AX*1)
	VMOVS X2, (R10)(AX*1)
	VMOVS X3, (R11)(AX*1)
	ADDQ $ES, AX
	JMP  outertail

done:
	VZEROUPPER
	RET
