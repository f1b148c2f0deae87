// Package nn is a small, dependency-free neural-network library: the
// dense multilayer perceptrons, Adam optimizer and fixed-layout
// parameter frame — the one encoding of a network — that GreenNFV's
// DDPG actor and critic are built from. It replaces
// the paper's Python 3.6 + TensorFlow learner with a pure-Go
// implementation sized for the problem (networks of a few thousand
// parameters, trained on one machine).
//
// # Paper mapping
//
// The actor/critic MLPs of Algorithm 2 (§4.3.2); the saved policy (a
// parameter frame, below) is the train-once/deploy-many artifact
// Figure 11 amortizes, and the same frame is what Algorithm 3's actors
// "periodically" pull from the learner.
//
// # Concurrency and determinism
//
// Networks are NOT goroutine-safe: every forward pass caches its
// activations in layer-owned scratch for the following backward pass,
// and the result a forward pass returns is that scratch, valid until
// the network's next forward pass of any kind. Give each concurrent
// inference user its own Clone (a clone, like NewMLP without trainable,
// has no gradient buffers and only runs forward). Initialization and
// training are deterministic given the seed on a fixed CPU feature
// set: the hot kernels (the batch passes' layer kernels, the optimizer
// step) have AVX2+FMA assembly variants, CPUID-gated with a pure-Go
// fallback, and FMA contraction rounds differently than the pure-Go
// code — so results are reproducible on a given machine but may differ
// in the last bits across machines with different vector support.
// KernelSet names the set this process selected. The package has one
// float64 forward per numerics contract: ForwardRows keeps the
// sequential summation order, ForwardBatch reassociates. Inference —
// ForwardRows, and Forward, which is ForwardRows with one row — does
// NOT depend on the kernel set: its kernels equal their Go loops bit
// for bit (below). Every pass (ForwardBatch/BackwardBatch and the
// BackwardBatchSplit variant, ForwardRows and Forward) allocates
// nothing in steady state.
//
// # Kernel contract
//
// There is one batch engine (batch.go), written over float32 | float64
// and instantiated at both: the passes and the optimizer step (adam.go:
// gradient scaling, clipping, Adam and the target update) exist once,
// and each instantiation calls the assembly symbols of its own width.
// The passes run on two layer-granular kernels: rows4, one call per
// 4-row group for the forward pass and again for the input gradients,
// and accumGrads, one call per layer for dW/dB. How they tile, unroll or schedule is free;
// what every float64 ELEMENT computes is pinned, because the
// byte-diffed figure tables (scripts/figdiff.sh) rest on it.
// "Bit-identical" here means, per CPU capability:
//
//   - Lane partition. A product w·x of a 4-row group is summed in four
//     lanes starting from +0: lane j takes the products at indices
//     ≡ j (mod 4), in ascending order, each step one FMA
//     (lane = fma(w[i], x[i], lane)). The pure-Go fallback (dot4)
//     instead keeps two accumulators, even and odd indices, each step
//     a rounded multiply then a rounded add.
//   - Reduce order. The lanes combine as (l0+l2)+(l1+l3); the fallback
//     returns even+odd. The kernel (kernel_rows4_amd64.h) schedules
//     that order two accumulators at a time: VPERM2F128 gathers the low
//     halves of two accumulators in one register and their high halves
//     in another, one add forms l0+l2 and l1+l3 of both (low half the
//     first operand), and VHADD adds each pair — eight accumulators of
//     a 4-row × 2-output tile in 8 lane shuffles, 4 adds and 2
//     horizontal adds, ending as each row's two sums side by side.
//     Every element gets exactly the adds above, each operand in the
//     position a one-accumulator reduce gives it, so even NaN payloads
//     agree with one.
//   - Tail. The n%4 trailing indices continue on the reduced sum by FMA
//     in ascending order — in the kernel as vector FMAs on the reduced
//     tile, each lane still one element's sequence (fallback: an odd
//     last index goes to the even accumulator before the final add).
//     At n == 1 (the input gradient through a one-output layer) there
//     is nothing to reduce, so every element is its one tail step,
//     fma(w[o], x[r], +0): the kernel computes it as an outer product,
//     a vector of outputs per row — a -0 product comes out +0, as it
//     does from the +0 reduced sum on any other shape.
//   - Bias. The forward pass stores b + s, added last; the input
//     gradients store s with nothing added (s + 0 would lose a -0).
//   - Remainder rows. The rows%4 rows after the last full group use the
//     pure-Go dot — four accumulators over indices mod 4, multiply then
//     add, (s0+s1)+(s2+s3), tail into s0 — on every CPU. So a row's
//     bits depend on whether it falls in a full group, which is why
//     BackwardBatchSplit's parity with separate passes holds for
//     halves that are multiples of four.
//   - ReLU. The forward pass computes y = 0.5·(z + |z|) — |z| by
//     clearing the sign bit, then one rounded add and one rounded
//     multiply — and the derivative dz = dY·(0.5·(copysign(1, z) + 1)) —
//     copysign by moving z's sign bit onto 1, one add, two multiplies —
//     per element, at either type, in the two AVX2 kernels
//     (kernel_relu_amd64.h, whole vectors) and in the pure-Go leaves
//     (relu64/reluDeriv64, relu32/reluDeriv32: the fallback, and the
//     tail after the last whole vector) alike, so where a layer's
//     elements split between them does not show. ForwardRows applies
//     the same leaves, so there is one ReLU (and one Tanh, one Sigmoid)
//     in the package. It is deliberately
//     not max(0, z) and a select: the step at z = ±0 follows the sign
//     bit (+0 passes the gradient, -0 does not), dY·0 is -0 for
//     negative dY and that sign travels on into dX, and ±Inf·0 is NaN.
//     A NaN z yields a NaN whose sign is the hardware's choice of add
//     operand; nothing else about NaNs is left open.
//   - Gradients. dW[o][i] accumulates over rows in ascending order,
//     one FMA per row (fma(dz, x, dW); fallback: multiply then add),
//     onto whatever dW already holds; dB[o] += dz by plain adds in the
//     same order. A row whose dz is zero of either sign is skipped
//     entirely — not an optimisation: adding a +0 would turn a -0
//     accumulator into +0.
//   - Sequential-order product (seqProduct, under ForwardRows and so
//     Forward — serving inference, acting, replay priorities). An
//     output is z[o] = b[o] + Σ_i W[o][i]·x[i] summed in ascending i
//     starting from the bias, every step one rounded multiply then one
//     rounded add, never an FMA: `sum := b[o]; sum += W[o][i] * x[i]`.
//     That loop is the pure-Go path. In the AVX2 kernel a lane is an
//     OUTPUT — four rows of W share a vector, 4×4 blocks transposed in
//     registers on the way in, the in%4 columns gathered — and each
//     lane walks its own row in exactly that order, so the two paths
//     agree bit for bit and a row's bits do not depend on how rows are
//     batched, which is what ForwardRows exists for. Sixteen outputs
//     are in flight to cover the add latency; when Out is not a
//     multiple of the group size the last groups start at Out-4 and
//     recompute rows an earlier group also covers (same bits, stored
//     twice); layers with fewer than four outputs take the Go loop.
//     The kernel keeps no state, in particular no transposed copy of W:
//     AdamStep and LoadParams write W with nothing to invalidate. When
//     two NaNs meet, which payload
//     survives is the hardware's choice of operand, in the kernel and
//     in compiled Go alike; nothing else is left open.
//   - Tanh (tanhs64, float64 only). The AVX2 kernel is math.Tanh, lane
//     for lane: the operation sequence of math.tanh (tanh.go) — the
//     rational x + x·s·P(s)/Q(s), s = x², below 0.625;
//     1 − 2/(Exp(2|x|) + 1) with x's sign above; ±1 past 0.5·MAXLOG —
//     and under it that of the FMA branch of math.archExp
//     (exp_amd64.s: the LOG2E multiply, round to nearest, two fused
//     reductions by LN2U and LN2L, ×1/16, seven fused Horner steps,
//     four (y+2)·y doublings with the last fused into +1, the exponent
//     added by shifting it into place), with the same constants. Every
//     lane computes both forms and ordered compares blend them in the
//     order of tanh's switch: the rational form, x itself where x = ±0
//     (so −0 survives), the exponential form where |x| ≥ 0.625, ±1
//     where |x| > 0.5·MAXLOG. A NaN fails every ordered compare and
//     leaves through the rational form, quieted, as it does in Go. The
//     kernel takes whole vectors and math.Tanh itself the len%4 tail,
//     so parity with the toolchain's math.Tanh is the contract, not a
//     nicety: it holds because useSIMD requires FMA, which is exactly
//     when math.useFMA takes that branch of archExp, and because the
//     compiler does not fuse tanh.go's multiply-adds at the default
//     GOAMD64=v1 (assumed here as it is for Adam's Go loop against
//     adamasm). A toolchain that changes either source fails
//     TestTanhKernelParity by name.
//   - Transpose (transpose, float64 only). The backward pass's
//     wt[i][o] = W[o][i] moves whole 4×4 blocks through registers and
//     copies the edges in Go. Movement only: no element is computed.
//   - Input-gradient window. The first layer's dX may be asked for
//     rows [row0, rows) and columns [col0, In) only (the DDPG critic:
//     the action columns of the probe rows). A window element is the
//     same rows4 product of the same column of W against the same dz
//     row; the row groups count from row0, so with row0 a multiple of
//     four a window is bit for bit the matching slice of the whole dX
//     (BackwardBatchSplit rounds its row0 down to one).
//   - Optimizer step (AdamStep). Per element, in order: the gradient
//     times the scale (one multiply); Adam's m' = β1·m + (1−β1)·g,
//     v' = β2·v + (1−β2)·g·g, p' = p − lr·(m'/b1c) / (√(v'/b2c) + ε),
//     every operation rounded on its own, never an FMA; then the target,
//     t' = τ·p' + (1−τ)·t, multiply, multiply, add. adamasm runs both
//     in one pass, each instruction whose two operands can both be NaN
//     taking them in the Go loop's order. Two things the kernel skips
//     change no bit: m'/b1c once b1c (1 − β1^t, rounded) is exactly 1 —
//     at float64 from t = 356 on, at float32 from t = 165 — because x/1
//     is x for every x, NaN included; and the clip-norm loop when it
//     cannot clip. The clip is decided by that loop alone: Σ g², in
//     order, each square and add rounded in float64, √, clip when the
//     norm exceeds ClipNorm. The scaling pass sums the same squares in
//     an order of its own (sixteen FMA lane chains); two orders of N
//     non-negative terms each lie within N·u·S of the exact sum S
//     (u = 2⁻⁵³, plus N·2⁻¹⁰⁷⁵ from squares that underflow), so for
//     N < 2³⁰ a lane sum below ClipNorm²·(1−2⁻²⁰) puts the sequential
//     sum below ClipNorm² and its correctly rounded root at or below
//     ClipNorm, and the loop is not run (clipFree; a NaN or infinite
//     sum, or ClipNorm² outside [2⁻¹⁰⁰⁰, 2¹⁰⁰⁰], always runs it).
//
// kernel_test.go holds the kernels to an element-by-element reference
// of exactly this, on both capability paths (TestRows4TreeParity: the
// four-row product at both widths on every n × m from 1×1 to 70×70,
// bias on and off, zeros of both signs, subnormals, overflowing
// magnitudes, NaNs and infinities in every lane, n == 1 included;
// TestBackwardInputColumns: windows against the whole dX, odd column
// and multiple-of-4 row offsets; TestReLUKernelParity: both
// ReLU kernels against the Go leaves at both widths, every length from
// 0 to 17 and a 32×48 layer, zeros of both signs, NaNs, infinities and
// subnormals in every lane; TestSeqKernelParity: every shape from 1×1
// to 64×70 with the same specials; TestTanhKernelParity and
// FuzzTanhKernelParity: every boundary of math.Tanh with its
// neighbours, then four million values, against math.Tanh;
// TestTransposeParity; adam_test.go's TestFusedOptimizerParity: 400
// steps at both widths against the step as it was before the target
// update and the skips, with norms landed a few ulps either side of
// ClipNorm, NaN, infinite and zero gradients, past both b1c = 1
// points), TestKernelsConcurrent runs the stateless
// kernels from eight goroutines at once, and fingerprint_test.go
// pins 300 composed float64 DDPG updates to the values recorded before
// the kernels were made layer-granular, and 200 float32 ones to the
// values recorded before the two engines became one. Kernel scratch
// (the gradient kernel's compacted non-zero rows) is layer-owned like
// every other batch buffer, and shared by both element types of a
// layer: the figure pool trains networks concurrently, and a
// package-level buffer passes every test here yet changes the figures.
// The float32 instantiation runs the same layer kernels in 8-lane form:
// rows4's lanes fold as ((l0+l4)+(l1+l5)) + ((l2+l6)+(l3+l7)), one more
// horizontal add on the same tree, and the optimizer entry holds as
// written (its square root goes through float64, which at 24 bits
// rounds as a single-precision root would). Beyond those and the ReLU
// entry, float32 element arithmetic is not specified except by the
// recorded values. Still untouched: Adam's remaining divides and its
// square root (divider-bound; a reciprocal would round differently).
//
// # Parameter frame
//
// A network's parameters travel — from the Ape-X learner to every
// actor, into the saved policy file and into a training checkpoint —
// as one fixed-layout frame (frame.go), little-endian throughout; it is
// the only way this package serializes a network:
//
//	offset        size       field
//	0             8          magic "GNFVPRM1"
//	8             4          L, the layer count (uint32)
//	12 + 12·l     4, 4, 4    layer l: In, Out, Act (uint32 each), l = 0..L-1
//	12 + 12·L     8·In·Out   layer 0's W, row-major Out × In, the IEEE-754
//	                         bits of each float64
//	…             8·Out      layer 0's B
//	…                        layer 1's W, then B, and so on to layer L-1
//
// so a frame is exactly 12 + 12·L + 8·NumParams bytes.
// AppendParamFrame is the one encoder: it appends a frame to the
// caller's buffer, allocating only when the buffer lacks the room, and
// keeps no reference to it; ParamFrame is its wrapper into a new buffer
// of exactly the frame's size. The buffer is the caller's to reuse, so
// the caller owns the lifetime rule: the Ape-X learner hands a frame to
// its pullers, each of which may read it until it releases it, and
// re-encodes into that buffer only once no puller holds it — a held
// frame is never rewritten (internal/rl/apex, "Parameter broadcast").
// LoadParams reads
// one into a network that already exists, in place and without
// allocating; MLPFromFrame builds an inference-only MLP of given layer
// sizes around one, its weights decoded straight from the frame with no
// random draw. Either way the header is there to be compared with a
// shape the receiver already knows, never to size anything: CheckParams
// compares it with a network, CheckMLPFrame with layer sizes, and both
// are the one check (checkFrame) with the same refusals. Validation
// order — all of it before the first parameter is written, so a refused
// frame changes nothing:
//
//  1. the magic (bytes that do not start with it, another format or
//     frame version among them, get ErrNotParamFrame and are not read
//     further);
//  2. the total length, against the length of the expected shape's frame
//     — exact, so truncation, trailing bytes and every later
//     out-of-bounds read are excluded at once, and no product of sizes
//     read from the bytes is ever formed;
//  3. the layer count;
//  4. each layer's In, Out and Act, against the expected layer.
//
// Every bit pattern survives the trip (NaN payloads, -0), so
// ParamFrame ∘ LoadParams ∘ ParamFrame is the identity on frames.
// Float32 mirrors are not in the frame: the sender flushes them into
// the float64 weights first, the receiver re-derives its own (ddpg does
// both).
//
// # Float32 fast path
//
// The float32 instantiation of the engine halves the memory traffic of
// the learn step (8 lanes per register instead of 4). Callers outside
// the package reach either element type through the generic functions
// (ForwardBatch, BackwardBatchParams, BackwardBatchSplit, ZeroGrad,
// AdamStep); the methods of the same names, where they exist, are the
// float64 instantiations, and ForwardBatchF32/BackwardBatchF32 the
// float32 ones. What differs between the two beyond the type, and why:
//
//   - Parameters. Float64 passes run on W/B themselves. Float32 ones
//     run on mirrors, an explicit opt-in with a snapshot/flush
//     contract: EnableF32 copies the f64 weights into the mirrors, the
//     float32 passes and AdamStep (target update included) then treat
//     the mirrors as the authoritative weights, and FlushF32 writes them back for
//     serialization and f64 inference. Nothing at float64 reads
//     the mirrors, so the deterministic figure path is unaffected by
//     f32 use elsewhere.
//   - Elementwise leaves (batch32.go). Tanh is the rational tanh32
//     instead of math.Tanh (~15% of the f32 learn step otherwise).
//     ReLU is the same arithmetic at both types (Kernel contract); its
//     pure-Go leaves only spell the bit masks differently, integer
//     masks on Float32bits where float64 has math.Abs/Copysign. Each
//     leaf is chosen once per layer call on the slice type, never per
//     element. Sigmoid goes through float64 at both types.
//   - Mixed precision, part of the contract because the recorded
//     float32 values depend on it: Adam accumulates the clip norm in
//     float64 and narrows the scale factor; computes both bias
//     corrections in float64 and narrows them; and takes the square
//     root as T(math.Sqrt(float64(vHat))). Everything else in a step —
//     moments, divides, the update — is in T. All of these are identity
//     conversions at T = float64, which is what lets one body be exact
//     for both.
//
// Determinism: the f32 path is deterministic given the seed on a fixed
// CPU feature set (same caveat as f64), but it is NOT bit-comparable
// to the f64 path and makes no parity promise beyond the quantified
// bound in the ddpg package's f32-vs-f64 test. Both instantiations are
// zero-alloc in steady state (batch passes and the optimizer step with
// its target update), pinned by TestBatchZeroAllocSteadyState and
// TestF32ZeroAllocSteadyState.
package nn
