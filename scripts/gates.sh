#!/usr/bin/env bash
# gates.sh [go test flags] — the named regression gates: one `go test`
# run per package, and the one list of them. `go test -race ./...` runs
# every one too; this runs them verbose (each PASS line grep-able in a
# CI log), without the race detector's instrumentation (so allocation
# budgets are the real ones), and fails if a listed name is not the
# whole name of a passing test (renamed or removed). Each test's doc
# comment says what it pins. Extra arguments go to `go test`
# (scripts/gates.sh -race).
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."

gates=(
	# Training plane: chaos kill/resume, checkpoints and resume, fleet bounds, the learner's messages, the broadcast, the stepping loop, the reference fingerprints.
	"./internal/rl/apex TestChaosKillResume|TestFleetFailureStopsLearner|TestPushRejectsMalformedExperience|TestRegisterRefusesIDOutsideFleet|TestTrainerCheckpointResume|TestWriteReadCheckpoint|TestTrainerFingerprint|FuzzTrainerCheckpoint|TestResumeRefusesGobNetworks|TestResumeAcrossGOMAXPROCS|TestResumeRejectsMissingAndMismatched|TestLearnerMessageLayouts|FuzzPushWire|TestParallelDriverMatchesRoundRobinStepping|TestParallelSnapshotsOnRoundRobinGrid|TestParallelTrainsClusterEnv|TestPublishRecyclesReleasedFrame|TestSyncParamsReleasesItsPull|TestReleaseCountsOnlyTheCurrentFrame|TestConcurrentPullersSeeTheirVersion|TestSyncParamsAllocatesNothing|TestPublishedFrameIsImmutable|TestNewTrainerFootprint|FuzzDecodeActorSpec"
	# The agent: its checkpoint layout and refusals, actor frames, what acts and what is released, zero-alloc learning and acting, f32 drift.
	"./internal/rl/ddpg TestCheckpointRoundTrip|TestCheckpointRoundTripF32|TestCheckpointConfigMismatch|TestCheckpointRejectsDirtyReplay|TestCheckpointRestoresStripeCount|TestLoadActorBytesInPlace|TestAppendActorBytesInPlace|TestLoadActorBytesRejectsHostileFrames|TestActorFrameCheckMatchesCheckParams|TestLoadActorBytesRefusesLegacyGob|TestLoadActorBytesCorpus|FuzzLoadActorBytes|TestAgentFootprint|TestViewMatchesAgent|TestReleaseTrainingMemory|TestReleasedAgentActsWithoutAllocating|TestLearnBatchZeroAlloc|TestLearnBatchF32ZeroAlloc|TestLearnBatchIsLearn|TestActBatchNoAllocs|TestLearnF32ParityWithF64|TestStateLayout|TestLoadPolicyMatchesLoadAgent|TestLoadPolicyRefusesDamage|TestReadPolicyRefusesStreamedDamage|TestReadPolicyStreamsArePerCall|TestLoadRefusesOversizedConfig|TestLoadRefusesGobNetworks|TestLoadRefusesPreSectionCheckpoint|TestRefusedLoadStateChangesNothing|TestLoadStateRejectsHostileOptimizer|FuzzLoadState|FuzzLoadPolicy"
	# The NN engine: learn fingerprints, kernel parity, zero-alloc passes, the parameter frame and its decoder.
	"./internal/nn TestLearnFingerprint|TestKernelParityAVX2|TestKernelParityGo|TestReLUKernelParity|TestSeqKernelParity|TestTanhKernelParity|FuzzTanhKernelParity|TestTransposeParity|TestKernelsF32MatchGoWide|TestKernelsConcurrent|TestRows4TreeParity|TestBackwardInputColumns|TestFusedOptimizerParity|TestOptimizerKernelsBitExact|TestParamFrame|TestNetworkUnmarshalCorpus|FuzzNetworkUnmarshal|TestBatchZeroAllocSteadyState|TestF32ZeroAllocSteadyState|TestForwardRowsNoAllocs|TestForwardRowsBitIdentical|TestForwardInputLength|TestCloneFootprint|TestCheckMLPFrameMatchesCheckParams|TestDropCachesChangesNoBit|TestDroppedGradsRegrow"
	# Replay: storage that grows with its contents, the growth fingerprint, snapshot refusals.
	"./internal/rl/replay TestReplayGrowthParity|TestIdleBufferHoldsNoStorage|TestReleasedBufferHoldsNoStorage|TestSumTreeWalksLikeFullTree|TestSetStateRejectsCorruptSnapshot|FuzzReplaySetState"
	# The RPC transport: no gob on either plane, per-connection kept values, frame sizing, one small read buffer per connection.
	"./internal/rpcutil TestServiceMessagesAreLaidOut|TestRefusedLayoutIsAnsweredAndKept|TestKeptValuesStartEmpty|TestKeptValuesPerConnection|TestDeclaredLengthSizesNothing|TestGrownBufferReadsWholeFrames|TestWarmLinkReadsOnceIntoOneSmallBuffer|FuzzServerConn"
	# Serving: guardrail safety, the fleet soak, report allocations, policy-only reloads, the controller state, the node spec's refusals.
	"./internal/serve TestReadSpec|TestGuardrailProperty|TestFleetDeterminismVsSerial|TestFleetSoakStorm|TestExpireLeasesChurnRace|TestReportRoundTripAllocs|TestSteadyReportAllocatesNothing|TestPolicyReplyOutlivesRecord|FuzzReportWire|TestServingHoldsPolicyOnly|TestReloadCostIgnoresTrainingState|TestReloadRefusesStreamedDamage|TestReloadPersistFailureIsNotRejection|TestReplicaRefreshesInPlace|TestSnapshotLayout|TestBootOnUnknownLayouts|TestJournalCrashMatrix|FuzzStateLoad|TestStateLoadCorpus"
	# Framed files and journals: one refusal of every other format.
	"./internal/atomicio TestReadRejectsCorruption|TestJournalRoundTripAndBinding|TestWritePiecesIsWriteWhole"
	# The fault proxy both planes' chaos tests stand on.
	"./internal/faultrpc TestFaultProxyTransparent|TestFaultProxyDropsAndRetry|TestFaultProxyDelay|TestFaultProxyPartition|TestFaultProxyCloseUnderChurn"
	# The environment: single-node fingerprints, cluster determinism, zero-alloc steps, pinned assignments.
	"./internal/env TestEnvEpisodeFingerprint|TestClusterEnvDeterminism|TestClusterEnvStepAllocs|TestEnvStepZeroAlloc|TestClusterEnvPinVetting|TestClusterEnvResolvedAssignment"
	# The cluster model: the 1-node reduction and the evaluation's allocation budget.
	"./internal/cluster TestSingleNodeReduction|TestEvaluateClusterAllocs"
	# The sweep: shared cells, failing cells.
	"./internal/sweep TestSweepSharesResolvedCells|TestSweepFailingCellDoesNotStopGrid"
	# A trained controller keeps only what it serves and saves, and deploys without allocating.
	"./internal/control TestTrainedGreenNFVKeepsOnlyWhatItServes|TestTrainedGreenNFVFirstStepAllocatesNothing"
	# The figures: byte-identical across runs and across shared trainings.
	"./internal/experiments TestFigClusterDeterministic|TestSuiteSharesTrainingsByteForByte"
	# The root package: reachability of every declaration, an idempotent Measure, the node spec's bytes and refusals.
	". TestReachability|TestMeasureIsIdempotent|TestWriteNodeSpecBytes|TestNewSystemValidation"
)

# No gob on the training or serving plane: checkpoints and controller state are fixed layouts.
if go list -f '{{join .Imports " "}}' ./internal/rl/ddpg ./internal/rl/apex ./internal/serve | grep -qw 'encoding/gob'; then
	echo "gates: a non-test file in internal/rl/ddpg, internal/rl/apex or internal/serve imports encoding/gob" >&2
	exit 1
fi
echo "gates: no encoding/gob in internal/rl/ddpg, internal/rl/apex or internal/serve"

# Both planes register typed handlers (rpcutil.Method): no reflect import, no rpcutil.Serve call.
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
	out=$(go test "$@" -count=1 -v -run "^($pattern)\$" "$pkg") || {
		echo "$out"
		echo "gates: FAILED in $pkg" >&2
		exit 1
	}
	grep -E '^(--- |ok|PASS)' <<<"$out" || true
	# Every name in the pattern must have matched a test that passed.
	for name in ${pattern//|/ }; do
		if ! grep -q "^--- PASS: $name (" <<<"$out"; then
			echo "gates: no passing test matches $name in $pkg (renamed or removed?)" >&2
			exit 1
		fi
	done
done
echo "gates: all named gates passed"
