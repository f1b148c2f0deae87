#!/usr/bin/env bash
# gates.sh [go test flags] — the named regression gates, by name.
#
# `go test -race ./...` already runs every one of these; this script
# runs them once more on their own, verbose, so that each gate's
# PASS/FAIL line is grep-able in a CI log, so that the allocation
# budgets are checked without the race detector's instrumentation, and
# so that a gate that was renamed or deleted FAILS here instead of
# silently matching nothing. CI's test job and a developer run the same
# file; extra arguments go to `go test` (e.g. scripts/gates.sh -race).
#
# One line per package and concern: the package, then the -run pattern. Add a gate
# by adding its name to a pattern.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."

gates=(
	# Fault tolerance: actor crash (injected by this package's test
	# binary in its actor role) + respawn, lossy proxy, learner SIGKILL
	# + resume; a fleet that fails for good stops the learner; a pushed
	# batch with a malformed row is refused whole before the replay; an
	# actor ID outside the fleet is refused before it becomes a record;
	# serialize → restore bit-identical (weights and next updates) at
	# agent and trainer level, both precisions, the trainer's file
	# pinned byte for byte. And the reference loop:
	# whole round-robin runs hash (on raw parameter bits) to the values
	# recorded before the broadcast left gob, replay storage became lazy
	# and ReLU moved into assembly. A well-framed checkpoint whose
	# counters lie is refused by field, and one under another magic —
	# a gob-era GNFVCKP1 file among them — by its magic, before anything
	# is loaded (the fuzz target's seed run too). A replay snapshot
	# resumes at its own stripe count, across GOMAXPROCS and modes, bit
	# for bit.
	"./internal/rl/apex TestChaosKillResume|TestFleetFailureStopsLearner|TestPushRejectsMalformedExperience|TestRegisterRefusesIDOutsideFleet|TestTrainerCheckpointResume|TestWriteReadCheckpoint|TestTrainerFingerprint|FuzzTrainerCheckpoint|TestResumeRefusesGobNetworks|TestResumeAcrossGOMAXPROCS|TestResumeRejectsMissingAndMismatched"
	# The learner's six messages are fixed layouts: each at its length,
	# a push malformed in any region refused by row and field before
	# the replay, and whatever a push body holds either refused or read
	# back byte for byte with every float finite (the fuzz target's
	# seed run).
	"./internal/rl/apex TestLearnerMessageLayouts|FuzzPushWire"
	# No gob on either plane: the learner's and the controller's handler
	# tables hold the method names peers call, every handler in them makes
	# rpcutil.Wire messages, and a refused layout is answered — by a typed
	# handler with a reflected one's bytes — on a connection that stays
	# usable.
	"./internal/rpcutil TestServiceMessagesAreLaidOut|TestRefusedLayoutIsAnsweredAndKept"
	# A connection's kept messages: each call sees only its own argument
	# and an empty reply, on one connection and on two at once, whether
	# the method is registered typed or by reflection, and the two
	# registrations answer byte for byte alike; a frame
	# header's declared length sizes no buffer ahead of its bytes.
	"./internal/rpcutil TestKeptValuesStartEmpty|TestKeptValuesPerConnection|TestDeclaredLengthSizesNothing|TestGrownBufferReadsWholeFrames"
	# One actor, one stepping loop: the in-process driver and round-robin
	# take identical steps and stamp snapshots on one grid.
	"./internal/rl/apex TestParallelDriverMatchesRoundRobinStepping|TestParallelSnapshotsOnRoundRobinGrid"
	"./internal/rl/ddpg TestCheckpoint|TestCheckpointRestoresStripeCount"
	# The parameter broadcast: a version is encoded into the last one's
	# frame once every pull of it is released (no allocation) and into
	# one new frame while a pull holds it; an actor hands back each
	# frame it syncs, a stale or repeated release frees nothing another
	# puller holds, concurrent pullers copy the frame of the version
	# they were told, a pull copies in place with no allocation, a held
	# frame is never rewritten, and the agent's encoder rewrites its
	# previous frame with none; hostile frames, a frame under another
	# magic among them, and policy files from before the frame, change
	# nothing. Replay capacity is a bound, not
	# a reservation: a trainer and an acting agent are small, an idle
	# buffer holds no storage, neither the ring's growth nor the sum
	# tree's shows in any sample, total or prefix-sum walk, and a
	# corrupt snapshot cursor is refused. A trained agent lets go of its
	# training memory in place — replay contents (a released buffer
	# holds no storage and refills like a restored one), update scratch,
	# batch caches — with no allocation and no served bit moved. What
	# only acts holds inference-only networks: an actor reaches no
	# training state, a view acts and
	# prioritizes bit for bit like the agent it mirrors, and a network
	# clone carries no gradients. The frame check that needs no network
	# — what the serving reader runs and a network built from a frame
	# passes — gives every hostile frame the network's own refusal.
	"./internal/rl/apex TestPublishRecyclesReleasedFrame|TestSyncParamsReleasesItsPull|TestReleaseCountsOnlyTheCurrentFrame|TestConcurrentPullersSeeTheirVersion|TestSyncParamsAllocatesNothing|TestPublishedFrameIsImmutable|TestNewTrainerFootprint"
	"./internal/rl/ddpg TestLoadActorBytesInPlace|TestAppendActorBytesInPlace|TestLoadActorBytesRejectsHostileFrames|TestActorFrameCheckMatchesCheckParams|TestLoadActorBytesRefusesLegacyGob|TestAgentFootprint|TestViewMatchesAgent|TestReleaseTrainingMemory"
	"./internal/nn TestCloneFootprint|TestCheckMLPFrameMatchesCheckParams|TestDropCachesChangesNoBit"
	"./internal/rl/replay TestReplayGrowthParity|TestIdleBufferHoldsNoStorage|TestReleasedBufferHoldsNoStorage|TestSumTreeWalksLikeFullTree|TestSetStateRejectsCorruptSnapshot"
	# One NN engine at two element types: 300 f64 and 200 f32 composed
	# updates hash to the recorded values on both kernel sets, the
	# kernels equal their element-wise reference, and a train step, a
	# learn step and batched acting allocate nothing at either type —
	# budgets that `go test -race` cannot check. The three float64 leaf
	# kernels (sequential-order product, tanh, transpose) equal the Go
	# loops they replace bit for bit, math.Tanh included. The learn-step
	# kernels: the four-row product's shuffle-tree reduce and outer
	# product on every shape to 70×70 at both widths, the windowed
	# first-layer input gradient, and the fused optimizer step (target
	# update, b1c and clip-norm skips) against the step it replaced.
	# Forward is ForwardRows with one row: every row of an n-row pass
	# has the bits of a one-row pass, and a wrong input length panics.
	"./internal/nn TestLearnFingerprint|TestKernelParityAVX2|TestKernelParityGo|TestReLUKernelParity|TestSeqKernelParity|TestTanhKernelParity|TestTransposeParity|TestKernelsF32MatchGoWide|TestRows4TreeParity|TestBackwardInputColumns|TestFusedOptimizerParity|TestParamFrame|TestBatchZeroAllocSteadyState|TestF32ZeroAllocSteadyState|TestForwardRowsNoAllocs|TestForwardRowsBitIdentical|TestForwardInputLength"
	"./internal/rl/ddpg TestLearnBatchZeroAlloc|TestLearnBatchF32ZeroAlloc|TestActBatchNoAllocs|TestLearnF32ParityWithF64"
	# Serving safety: no applied config outside bounds or predicted to
	# violate the SLA on any ladder rung; the 32-node fleet soak and its
	# serial-vs-concurrent bit-identity; lease expiry racing the shards;
	# a steady report over loopback, client and server, inside its
	# allocation budget, and none at all in the controller; a replied
	# config outlives the record that replaced it; boot, resume and hot
	# reload keep only a checkpoint's policy section, a reload allocates
	# at most reloadAllocBound forms, the same with or without a replay
	# behind the section, and refuses each damaged stream with the
	# section reader's message, keeping its old policy and version; a
	# reload that swapped but could not persist is told apart from a
	# rejection and counted; a pooled replica refreshes in place, and a
	# replica is built from the snapshot's frame only for other hidden
	# widths.
	# The controller state: the snapshot's layout region by region and
	# its refusals, a checkpoint whose training state is unreadable
	# that still serves beside a state file and a journal under
	# another magic refused at boot without a write, every journal
	# truncation recovering a prefix, and the fuzz target's corpus.
	"./internal/serve TestGuardrailProperty|TestFleet|TestExpireLeasesChurnRace|TestReportRoundTripAllocs|TestSteadyReportAllocatesNothing|TestPolicyReplyOutlivesRecord|TestServingHoldsPolicyOnly|TestReloadCostIgnoresTrainingState|TestReloadRefusesStreamedDamage|TestReloadPersistFailureIsNotRejection|TestReplicaRefreshesInPlace|TestSnapshotLayout|TestBootOnUnknownLayouts|TestJournalCrashMatrix|FuzzStateLoad"
	# The checkpoint: one layout, the section's policy acts like the
	# whole agent bit for bit, any damage is refused — by the streaming
	# reader, whole or a byte at a time, with the whole-slice readers'
	# message (the fuzz target's seed run too) — a Config claiming
	# more than the file holds is refused before it sizes anything, and
	# a checkpoint corrupted in any region — or with hostile optimizer
	# moments — is refused before the first write. A checkpoint whose
	# training state is gob networks or under another magic still
	# serves its section and is refused as an agent, as is a bare state
	# with no section. The reader's pooled stream carries nothing from
	# one read to the next, nor between goroutines.
	"./internal/rl/ddpg TestStateLayout|TestLoadPolicyMatchesLoadAgent|TestLoadPolicyRefusesDamage|TestReadPolicyRefusesStreamedDamage|TestReadPolicyStreamsArePerCall|TestLoadRefusesOversizedConfig|TestLoadRefusesGobNetworks|TestLoadRefusesPreSectionCheckpoint|TestRefusedLoadStateChangesNothing|TestLoadStateRejectsHostileOptimizer|FuzzLoadState|FuzzLoadPolicy"
	# One refusal of every other format: a framed file or a journal
	# under another magic is refused with both magics quoted, escaped
	# whatever the file held, and a framed file shorter than its header
	# with its length. A payload written in pieces is the file its
	# concatenation makes, and its sum the concatenation's.
	"./internal/atomicio TestReadRejectsCorruption|TestJournalRoundTripAndBinding|TestWritePiecesIsWriteWhole"
	# The fault proxy both planes' chaos tests stand on.
	"./internal/faultrpc TestFaultProxy"
	# One environment: single-node episodes bit-identical to the
	# recorded fingerprints, cluster traces deterministic at 1/2/8
	# nodes, zero allocations per step and per serving tick. A pinned
	# assignment is vetted when it is pinned, and an environment handed
	# a resolved assignment is the one that resolved it, bit for bit.
	"./internal/env TestEnvEpisodeFingerprint|TestClusterEnvDeterminism|TestClusterEnvStepAllocs|TestEnvStepZeroAlloc|TestClusterEnvPinVetting|TestClusterEnvResolvedAssignment"
	# A 1-node cluster is the perfmodel path bit for bit; cluster
	# evaluation stays inside its allocation budget.
	"./internal/cluster TestSingleNodeReduction|TestEvaluateClusterAllocs"
	# The sweep trains cells built from the same inputs once, and only
	# train_seconds shows it; a policy that fails in the plan fails its
	# own rows.
	"./internal/sweep TestSweepSharesResolvedCells|TestSweepFailingCellDoesNotStopGrid"
	# A trained controller keeps only what it serves and saves: the
	# learner's bits, an empty replay, about a loaded policy's heap.
	"./internal/control TestTrainedGreenNFVKeepsOnlyWhatItServes"
	# The cluster figure byte-diffs across runs, and a figure suite
	# trains each distinct model once with no byte of any table moved.
	"./internal/experiments TestFigClusterDeterministic|TestSuiteSharesTrainingsByteForByte"
	# Nothing outside tests stays unless a binary, the public API or
	# bench/ reaches it (testdata/reach.keep lists the exceptions), and
	# measuring a policy twice gives the same answer.
	". TestReachability|TestMeasureIsIdempotent"
)

# The training plane and the serving plane have no gob: no non-test
# file of ddpg, apex or serve imports encoding/gob (the checkpoints and
# the controller state are fixed layouts).
if go list -f '{{join .Imports " "}}' ./internal/rl/ddpg ./internal/rl/apex ./internal/serve | grep -qw 'encoding/gob'; then
	echo "gates: a non-test file in internal/rl/ddpg, internal/rl/apex or internal/serve imports encoding/gob" >&2
	exit 1
fi
echo "gates: no encoding/gob in internal/rl/ddpg, internal/rl/apex or internal/serve"

# Both planes register typed handlers (rpcutil.Method): no non-test
# file of apex or serve calls the reflective rpcutil.Serve or imports
# reflect, so no call of theirs runs reflection per frame.
if go list -f '{{join .Imports " "}}' ./internal/rl/apex ./internal/serve | grep -qw 'reflect'; then
	echo "gates: a non-test file in internal/rl/apex or internal/serve imports reflect" >&2
	exit 1
fi
if grep -n 'rpcutil\.Serve(' $(go list -f '{{range .GoFiles}}{{$.Dir}}/{{.}} {{end}}' ./internal/rl/apex ./internal/serve); then
	echo "gates: a non-test file in internal/rl/apex or internal/serve registers by reflection (rpcutil.Serve)" >&2
	exit 1
fi
echo "gates: no reflection in internal/rl/apex or internal/serve"

for gate in "${gates[@]}"; do
	pkg=${gate%% *}
	pattern=${gate#* }
	out=$(go test "$@" -count=1 -v -run "^($pattern)" "$pkg") || {
		echo "$out"
		echo "gates: FAILED in $pkg" >&2
		exit 1
	}
	grep -E '^(--- |ok|PASS)' <<<"$out" || true
	# Every name in the pattern must have matched a test that passed.
	for name in ${pattern//|/ }; do
		if ! grep -q "^--- PASS: $name" <<<"$out"; then
			echo "gates: no passing test matches $name in $pkg (renamed or removed?)" >&2
			exit 1
		fi
	done
done
echo "gates: all named gates passed"
