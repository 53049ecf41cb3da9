package main

// The benchmark's single source of truth: the workloads, the metrics with
// their units and bounds, and the input sizes. BENCHMARK.json at the repo
// root is `bench spec` written to a file, and the smoke test fails when the
// two drift apart.

import (
	"encoding/json"
	"io"
)

// procs is the fixed load: p = 2 ranks for every training workload and 2
// closed-loop client connections for the serve workloads. It is never
// derived from the host's CPU count, so numbers stay comparable.
const procs = 2

// runSeconds is the timed window the driver asks for (BENCHMARK.json's
// run_seconds) and the default of --seconds.
const runSeconds = 10

type workloadSpec struct {
	Name string `json:"name"`
	Why  string `json:"why"`
	run  func(rc *runCtx) error
}

var workloads = []workloadSpec{
	{"train-deep-exact", "Paper's exact algorithm on an unlimited-depth tree: gini scan, node table and ~65 levels of small collectives dominate; presort is about 5% of the modeled budget.", runTrainDeep},
	{"train-wide-binned", "Same engine on the other split-finding path: presort of 60 lists, histogram cuts, one big reduce-scatter per level; the exact scan and the node table do almost nothing.", runTrainWide},
	{"train-tcp-exact", "train-deep-exact's table with one OS process per rank over localhost: every collective crosses frame codec and socket, so the gap to the sim run is the transport's cost.", runTrainTCP},
	{"forest-bagged", "Bootstrap gather, T presorts, T small worlds and feature masks: the only place shared-presort or per-tree set-up work shows, and the only forest predict kernel path.", runForest},
	{"serve-single-row", "Closed loop, 2 keep-alive clients, 1-row JSON bodies: the batcher never fills, so the 1 ms flush deadline is the latency floor; batcher changes move this and nothing else does.", runServeSingle},
	{"serve-bulk-json", "Closed loop, 2 clients, 256-row JSON bodies: JSON decode, scatter/encode and HTTP framing dominate beside the same 1 ms wait; a faster decoder shows here only.", runServeBulk},
}

func findWorkload(name string) *workloadSpec {
	for i := range workloads {
		if workloads[i].Name == name {
			return &workloads[i]
		}
	}
	return nil
}

type metricSpec struct {
	Name   string
	Unit   string
	Better string // "lower" or "higher"
	Bound  float64
}

// endToEnd are the figures a user of the system sees. Every workload
// reports every one of them from its untraced run, so each is defined for
// training jobs and for served requests alike (see README.md). Bound is the
// share of the parent's median by which the metric may worsen before a
// change counts as a regression. All four sit at the schema's ceiling: on
// the shared 2-CPU recording host the two-rank training jobs drift between
// regimes about 18 % apart that last a minute or more, so ten runs of
// train-deep-exact spread (IQR over median) by up to 17 % with nothing
// changed (baseline/, README.md). A tighter claim needs paired runs.
var endToEnd = []metricSpec{
	{"setup_s", "s", "lower", 0.25},
	{"op_ms", "ms", "lower", 0.25},
	{"rows_per_s", "rows/s", "higher", 0.25},
	{"peak_rss_mb", "MB", "lower", 0.25},
}

// perLayer are measured from outside the program only: by timing calls into
// each module's public functions on inputs of the workload's shape, and by
// reading counters the public API already returns. The prefix is the module
// the metric belongs to. A metric reads 0 on a workload that never enters
// its layer.
var perLayer = []metricSpec{
	{"hostprobe.scan_ns_per_entry", "ns", "lower", 0},
	{"bench.failed_share", "ratio", "lower", 0},
	{"bench.trace_overhead_share", "ratio", "lower", 0},

	{"datagen.generate_s", "s", "lower", 0},
	{"dataset.build_lists_s", "s", "lower", 0},
	{"dataset.lists_bytes", "bytes", "lower", 0},
	{"serial.train_wall_s", "s", "lower", 0},

	{"psort.sort_s", "s", "lower", 0},
	{"psort.sort_share", "ratio", "lower", 0},
	{"gini.scan_ns_per_entry", "ns", "lower", 0},
	{"histogram.cuts_s", "s", "lower", 0},
	{"histogram.binof_ns_per_value", "ns", "lower", 0},
	{"splitter.best_categorical_ns", "ns", "lower", 0},
	{"nodetable.update_ns_per_rid", "ns", "lower", 0},
	{"nodetable.lookup_ns_per_rid", "ns", "lower", 0},

	{"comm.alltoall_ns_per_byte", "ns", "lower", 0},
	{"comm.exscan_us_per_call", "us", "lower", 0},
	{"comm.allreduce_us_per_call", "us", "lower", 0},
	{"comm.reducescatter32_ns_per_elem", "ns", "lower", 0},
	{"comm.bytes_sent", "bytes", "lower", 0},
	{"comm.collective_calls", "count", "lower", 0},

	{"tcptransport.connect_s", "s", "lower", 0},
	{"tcptransport.exchange_small_us", "us", "lower", 0},
	{"tcptransport.exchange_mb_per_s", "MB/s", "higher", 0},
	{"tcptransport.job_overhead_s", "s", "lower", 0},
	{"tcptransport.wall_over_sim", "ratio", "lower", 0},

	{"scalparc.modeled_s", "s", "lower", 0},
	{"scalparc.levels", "count", "lower", 0},
	{"scalparc.nodes", "count", "lower", 0},
	{"scalparc.modeled_presort_s", "s", "lower", 0},
	{"scalparc.modeled_findsplit1_s", "s", "lower", 0},
	{"scalparc.modeled_findsplit2_s", "s", "lower", 0},
	{"scalparc.modeled_performsplit1_s", "s", "lower", 0},
	{"scalparc.modeled_performsplit2_s", "s", "lower", 0},
	{"scalparc.peak_tracked_mb_per_rank", "MB", "lower", 0},
	{"scalparc.allocs_per_train", "count", "lower", 0},
	{"scalparc.alloc_mb_per_train", "MB", "lower", 0},
	{"scalparc.wall_p1_s", "s", "lower", 0},
	{"scalparc.speedup_p2", "ratio", "higher", 0},
	{"scalparc.self_s", "s", "lower", 0},
	{"scalparc.forest_wall_per_tree_s", "s", "lower", 0},
	{"scalparc.forest_heldout_accuracy", "ratio", "higher", 0},

	{"tree.encode_s", "s", "lower", 0},
	{"tree.decode_s", "s", "lower", 0},
	{"tree.model_bytes", "bytes", "lower", 0},
	{"infer.compile_s", "s", "lower", 0},
	{"infer.table_ns_per_row", "ns", "lower", 0},
	{"infer.rows_ns_per_row", "ns", "lower", 0},
	{"infer.forest_table_ns_per_row", "ns", "lower", 0},
	{"infer.model_bytes", "bytes", "lower", 0},
	{"cache.acquire_release_ns", "ns", "lower", 0},

	{"serve.request_p99_ms", "ms", "lower", 0},
	{"serve.request_p999_ms", "ms", "lower", 0},
	{"serve.handler_p50_ms", "ms", "lower", 0},
	{"serve.handler_nowait_p50_ms", "ms", "lower", 0},
	{"serve.batch_wait_ms", "ms", "lower", 0},
	{"serve.http_overhead_ms", "ms", "lower", 0},
	{"serve.kernel_ms_per_req", "ms", "lower", 0},
	{"serve.mean_batch_rows", "rows", "higher", 0},
	{"serve.deadline_flush_share", "ratio", "lower", 0},
	{"serve.shed_share", "ratio", "lower", 0},
	{"serve.body_bytes_per_row", "bytes", "lower", 0},
}

func findMetric(set []metricSpec, name string) *metricSpec {
	for i := range set {
		if set[i].Name == name {
			return &set[i]
		}
	}
	return nil
}

// sizes are a scale's input sizes. "full" is what every recorded number
// uses; "tiny" exists so the smoke test can run every workload in well
// under a second each.
type sizes struct {
	deepRows    int
	wideRows    int
	wideNoise   int // extra continuous attributes on top of the base seven
	forestTrain int
	forestTest  int
	forestTrees int
	serveTrain  int
	serveRows   int // rows in the table request bodies are cut from
	bulkRows    int // rows per request on serve-bulk-json
	warmIters   int // discarded training iterations before the timed ones
	minIters    int // timed training iterations even when --seconds is spent
	serveWarm   float64
	probeReps   int     // repetitions of each micro probe
	probeBytes  int     // payload of the bulk comm and tcptransport probes
	probeCalls  int     // calls per small-collective probe
	probeSecs   float64 // length of each direct-handler probe loop
	setupBudget float64 // stop repeating set-up once this much was spent
}

var scales = map[string]sizes{
	"full": {
		deepRows: 300_000, wideRows: 100_000, wideNoise: 57,
		forestTrain: 80_000, forestTest: 20_000, forestTrees: 8,
		serveTrain: 100_000, serveRows: 20_000, bulkRows: 256,
		warmIters: 1, minIters: 3, serveWarm: 1,
		probeReps: 5, probeBytes: 1 << 20, probeCalls: 2000, probeSecs: 1,
		setupBudget: 4,
	},
	"tiny": {
		deepRows: 2_000, wideRows: 2_000, wideNoise: 57,
		forestTrain: 1_600, forestTest: 400, forestTrees: 3,
		serveTrain: 2_000, serveRows: 600, bulkRows: 256,
		warmIters: 0, minIters: 1, serveWarm: 0.02,
		probeReps: 1, probeBytes: 1 << 14, probeCalls: 20, probeSecs: 0.03,
		setupBudget: 0,
	},
}

// benchmarkFile is the shape of BENCHMARK.json.
type benchmarkFile struct {
	Command    []string         `json:"command"`
	Paths      []string         `json:"paths"`
	RunSeconds int              `json:"run_seconds"`
	Workloads  []workloadSpec   `json:"workloads"`
	EndToEnd   []map[string]any `json:"end_to_end"`
	PerLayer   []map[string]any `json:"per_layer"`
}

func benchmarkSpec() benchmarkFile {
	bf := benchmarkFile{
		Command:    []string{"bash", "benchmark/run.sh"},
		Paths:      []string{"benchmark"},
		RunSeconds: runSeconds,
		Workloads:  workloads,
	}
	for _, m := range endToEnd {
		bf.EndToEnd = append(bf.EndToEnd, map[string]any{"name": m.Name, "unit": m.Unit, "better": m.Better, "bound": m.Bound})
	}
	for _, m := range perLayer {
		bf.PerLayer = append(bf.PerLayer, map[string]any{"name": m.Name, "unit": m.Unit, "better": m.Better})
	}
	return bf
}

func writeSpec(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.SetEscapeHTML(false)
	return enc.Encode(benchmarkSpec())
}
