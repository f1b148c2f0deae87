// Bodies of the two elementwise ReLU kernels, included once per
// precision by simd_amd64.s with the element macros (ES, VADDP, ...)
// defined; RELU_DERIV selects the body.
//
//	forward:     y[i]  = 0.5 * (z[i] + |z[i]|)
//	derivative:  dz[i] = dY[i] * (0.5 * (copysign(1, z[i]) + 1))
//
// Per element these are the IEEE operations of the pure-Go leaves
// (relu64/reluDeriv64, relu32/reluDeriv32), in their order, each
// rounded: |z| and copysign are bit masks, then one add and one or two
// multiplies — the nn kernel contract (doc.go). Not a compare and
// blend: max(0, z) and a selected 0 or dY have the same values but not
// the same zeros (dY × 0 is -0 for negative dY, and that sign reaches
// dX), and Inf × 0 must stay NaN. A NaN z gives a NaN y; its sign is
// whichever operand of the add the hardware returns, which the compiled
// Go leaf does not fix either.
//
// The kernels cover whole vectors only; n is a multiple of the lane
// count and the caller finishes the tail with the Go leaf.
//
// On entry: SI = z, DI = y or dz, CX = n; derivative: R8 = dY.

	MOVE SIGNBITS, AX
	MOVE AX, X13
	VBCAST X13, Y13           // the sign bit of every lane
	MOVE HALFBITS, AX
	MOVE AX, X15
	VBCAST X15, Y15           // 0.5
#ifdef RELU_DERIV
	MOVE ONEBITS, AX
	MOVE AX, X14
	VBCAST X14, Y14           // 1
#endif
	// Pointers address the END of the data, so the loop counts a
	// negative byte index up to zero.
	SHLQ $LOGES, CX
	ADDQ CX, SI
	ADDQ CX, DI
#ifdef RELU_DERIV
	ADDQ CX, R8
#endif
	NEGQ CX
	JZ   done

loop:
	VMOVU (SI)(CX*1), Y0
#ifdef RELU_DERIV
	VANDP Y13, Y0, Y0         // sign of z
	VORP  Y14, Y0, Y0         // copysign(1, z)
	VADDP Y14, Y0, Y0         // + 1: 2 or 0
	VMULP Y15, Y0, Y0         // * 0.5: the step, 1 or 0
	VMULP (R8)(CX*1), Y0, Y0  // dY * step
#else
	VANDNP Y0, Y13, Y1        // |z|
	VADDP Y0, Y1, Y1          // |z| + z
	VMULP Y15, Y1, Y0         // * 0.5
#endif
	VMOVU Y0, (DI)(CX*1)
	ADDQ $32, CX
	JNZ  loop

done:
	VZEROUPPER
	RET
