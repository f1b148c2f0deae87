// Body of the parameter-gradient kernel, included once per precision
// by simd_amd64.s with the element macros (ES, VFMAP, ...) defined.
//
// For every output column o, over the rows r = 0..rows-1 in ascending
// order, skipping rows whose dz[r*out+o] == 0 (either sign):
//
//	db[o]        += dz[r*out+o]
//	dw[o*in + i]  = fma(dz[r*out+o], x[r*in+i], dw[o*in+i])    i = 0..in-1
//
// which is element for element what one axpy call per (row, column)
// computed. Per column the non-zero rows are first compacted into the
// scratch area without a branch (ReLU zeros are a coin flip); a tile of
// the dW row then stays in registers across all of them instead of
// being loaded and stored once per row. Whole 8-vector tiles run
// unmasked; what is left of the row (under 8 vectors, the last one
// possibly partial) runs in masked 4-vector tiles, so the n%lanes tail
// is the same FMA in a masked lane.
//
// On entry: R8 = dz, SI = dw, BX = db, R9 = scratch, DX = rows (> 0),
// R12 = in, R15 = out (> 0); x and rows are re-read from the frame.
// Scratch layout: rows 8-byte slots of dz values, then rows 8-byte
// slots of x row byte offsets.

	LEAQ (R9)(DX*8), R10      // R10 = x row offsets
	SHLQ $LOGES, R12          // R12 = bytes per x row and per dw row
	MOVQ R15, R13
	SHLQ $LOGES, R13          // R13 = bytes per dz row

column:
	// Compact this column's non-zero rows: every row is written at
	// slot CX, and CX advances only past a non-zero one.
	MOVQ rows+40(FP), DX
	MOVQ R8, R11
	XORQ AX, AX
	XORQ CX, CX

compact:
	MOVE (R11), R14
	MOVQ R14, (R9)(CX*8)
	MOVQ AX, (R10)(CX*8)
	SHLE $1, R14              // drop the sign: -0 is a zero too
	NEGE R14                  // carry = the rest is non-zero
	ADCQ $0, CX
	ADDQ R12, AX
	ADDQ R13, R11
	DECQ DX
	JNZ  compact

	TESTQ CX, CX
	JZ   nextcolumn

	VMOVS (BX), X0
	XORQ AX, AX

dbsum:
	VADDS (R9)(AX*8), X0, X0
	INCQ AX
	CMPQ AX, CX
	JLT  dbsum
	VMOVS X0, (BX)

	MOVQ R12, DX              // DX = bytes of the dw row still to do
	MOVQ SI, DI               // DI = dw tile
	MOVQ x+8(FP), R14         // R14 = the tile's columns of x row 0

tile8:
	CMPQ DX, $256
	JLT  rest
	VMOVU (DI), Y0
	VMOVU 32(DI), Y1
	VMOVU 64(DI), Y2
	VMOVU 96(DI), Y3
	VMOVU 128(DI), Y4
	VMOVU 160(DI), Y5
	VMOVU 192(DI), Y6
	VMOVU 224(DI), Y7
	XORQ AX, AX

tile8row:
	MOVQ (R10)(AX*8), R11
	VBCAST (R9)(AX*8), Y15
	ADDQ R14, R11
	VFMAP (R11), Y15, Y0
	VFMAP 32(R11), Y15, Y1
	VFMAP 64(R11), Y15, Y2
	VFMAP 96(R11), Y15, Y3
	VFMAP 128(R11), Y15, Y4
	VFMAP 160(R11), Y15, Y5
	VFMAP 192(R11), Y15, Y6
	VFMAP 224(R11), Y15, Y7
	INCQ AX
	CMPQ AX, CX
	JLT  tile8row

	VMOVU Y0, (DI)
	VMOVU Y1, 32(DI)
	VMOVU Y2, 64(DI)
	VMOVU Y3, 96(DI)
	VMOVU Y4, 128(DI)
	VMOVU Y5, 160(DI)
	VMOVU Y6, 192(DI)
	VMOVU Y7, 224(DI)
	ADDQ $256, DI
	ADDQ $256, R14
	SUBQ $256, DX
	JMP  tile8

rest:
	TESTQ DX, DX
	JZ   nextcolumn

tile4:
	// Lane masks from the bytes left: a 16-bit lane is live when its
	// byte offset within the tile is below DX, and DX is a multiple
	// of the element size, so each element's top bit is exact.
	VMOVQ DX, X12
	VPBROADCASTW X12, Y12
	VPCMPGTW tileoff<>+0(SB), Y12, Y4
	VPCMPGTW tileoff<>+32(SB), Y12, Y5
	VPCMPGTW tileoff<>+64(SB), Y12, Y6
	VPCMPGTW tileoff<>+96(SB), Y12, Y7
	VMASKMOV (DI), Y4, Y0
	VMASKMOV 32(DI), Y5, Y1
	VMASKMOV 64(DI), Y6, Y2
	VMASKMOV 96(DI), Y7, Y3
	XORQ AX, AX

tile4row:
	MOVQ (R10)(AX*8), R11
	VBCAST (R9)(AX*8), Y15
	ADDQ R14, R11
	VMASKMOV (R11), Y4, Y8
	VFMAP Y8, Y15, Y0
	VMASKMOV 32(R11), Y5, Y9
	VFMAP Y9, Y15, Y1
	VMASKMOV 64(R11), Y6, Y10
	VFMAP Y10, Y15, Y2
	VMASKMOV 96(R11), Y7, Y11
	VFMAP Y11, Y15, Y3
	INCQ AX
	CMPQ AX, CX
	JLT  tile4row

	VMASKMOV Y0, Y4, (DI)
	CMPQ DX, $32
	JLE  nextcolumn
	VMASKMOV Y1, Y5, 32(DI)
	CMPQ DX, $64
	JLE  nextcolumn
	VMASKMOV Y2, Y6, 64(DI)
	CMPQ DX, $96
	JLE  nextcolumn
	VMASKMOV Y3, Y7, 96(DI)
	ADDQ $128, DI
	ADDQ $128, R14
	SUBQ $128, DX
	JG   tile4

nextcolumn:
	ADDQ $ES, R8
	ADDQ $ES, BX
	ADDQ R12, SI
	DECQ R15
	JNZ  column
	VZEROUPPER
	RET
