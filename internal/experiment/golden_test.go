package experiment

import (
	"testing"

	"hierlock/internal/metrics"
	"hierlock/internal/proto"
	"hierlock/internal/workload"
)

// goldenSeed is the seed of the pinned cells below.
const goldenSeed = 1

// goldenCells pins the protocol outcome of two hierarchical-mapping cells
// and one 10-node cell per baseline mapping at the default configuration:
// request and message counts, overhead and latency factors. The
// hierarchical values were recorded at commit 881d1519dfc6 (before the
// engine's counter-based owned mode and the simulator's pooled
// deliveries), the baseline values at commit ae3c20c748eb (before the
// simulator node ran the four exclusive baselines through one engine
// table). Every figure is a deterministic function of the seed, so a
// change that only makes the engines or the simulator cheaper or
// smaller keeps them bit for bit; one that changes protocol behaviour
// (message counts, routing, event order) fails here.
var goldenCells = []Cell{
	{
		Mapping:             workload.Hierarchical,
		Nodes:               10,
		Ops:                 2282,
		Requests:            4276,
		Messages:            msgCounts(5562, 1844, 1549, 2072, 706),
		MsgsPerRequest:      2.7439195509822265,
		MsgsPerOp:           5.141542506573181,
		ReqLatencyFactor:    4.0640337466666665,
		OpLatencyFactor:     7.368587959999999,
		ReqLatencyP99Factor: 55.92405333333333,
	},
	{
		Mapping:             workload.Hierarchical,
		Nodes:               120,
		Ops:                 2708,
		Requests:            5132,
		Messages:            msgCounts(8162, 3415, 1096, 3448, 287),
		MsgsPerRequest:      3.197194076383476,
		MsgsPerOp:           6.059084194977843,
		ReqLatencyFactor:    34.48202876,
		OpLatencyFactor:     69.021695,
		ReqLatencyP99Factor: 894.7848533333333,
	},
	{
		Mapping:             workload.SameWork,
		Nodes:               10,
		Ops:                 1010,
		Requests:            1468,
		Messages:            msgCounts(2826, 0, 1222, 0, 0),
		MsgsPerRequest:      2.757493188010899,
		MsgsPerOp:           4.007920792079208,
		ReqLatencyFactor:    12.70537984,
		OpLatencyFactor:     18.956858920000002,
		ReqLatencyP99Factor: 111.84810666666667,
	},
	{
		Mapping:             workload.Pure,
		Nodes:               10,
		Ops:                 1816,
		Requests:            1816,
		Messages:            msgCounts(4180, 0, 1816, 0, 0),
		MsgsPerRequest:      3.301762114537445,
		MsgsPerOp:           3.301762114537445,
		ReqLatencyFactor:    9.954250526666666,
		OpLatencyFactor:     9.955805680000001,
		ReqLatencyP99Factor: 13.981013333333333,
	},
	{
		Mapping:             workload.PureRaymond,
		Nodes:               10,
		Ops:                 1099,
		Requests:            1098,
		Messages:            msgCounts(1809, 0, 1810, 0, 0),
		MsgsPerRequest:      3.295992714025501,
		MsgsPerOp:           3.2929936305732483,
		ReqLatencyFactor:    17.111684193333332,
		OpLatencyFactor:     17.132242566666665,
		ReqLatencyP99Factor: 27.962026666666667,
	},
	{
		Mapping:             workload.PureSuzuki,
		Nodes:               10,
		Ops:                 1830,
		Requests:            1831,
		Messages:            msgCounts(16479, 0, 1830, 0, 0),
		MsgsPerRequest:      9.999453850354998,
		MsgsPerOp:           10.004918032786886,
		ReqLatencyFactor:    9.806951993333335,
		OpLatencyFactor:     9.800241993333334,
		ReqLatencyP99Factor: 13.981013333333333,
	},
	{
		Mapping:             workload.PureRicart,
		Nodes:               10,
		Ops:                 1809,
		Requests:            1808,
		Messages:            msgCounts(16272, 16283, 0, 0, 0),
		MsgsPerRequest:      18.00608407079646,
		MsgsPerOp:           17.996130458817024,
		ReqLatencyFactor:    9.984011946666667,
		OpLatencyFactor:     9.97574228,
		ReqLatencyP99Factor: 13.981013333333333,
	},
}

// msgCounts builds the per-kind message counts of a cell (the baselines
// send only the first three kinds).
func msgCounts(request, grant, token, release, freeze uint64) (m metrics.Messages) {
	m.ByKind[proto.KindRequest] = request
	m.ByKind[proto.KindGrant] = grant
	m.ByKind[proto.KindToken] = token
	m.ByKind[proto.KindRelease] = release
	m.ByKind[proto.KindFreeze] = freeze
	return m
}

func TestGoldenCells(t *testing.T) {
	for _, want := range goldenCells {
		got, err := RunCell(Config{Seed: goldenSeed}, want.Mapping, want.Nodes)
		if err != nil {
			t.Fatalf("%v %d nodes: %v", want.Mapping, want.Nodes, err)
		}
		if got.Requests != want.Requests || got.Messages != want.Messages {
			t.Errorf("%v %d nodes: protocol outcome changed\n got %s\nwant %s", want.Mapping, want.Nodes, got.Dump(), want.Dump())
		}
		if got.Overhead() != want.Overhead() || got.LatencyFactor() != want.LatencyFactor() ||
			got.ReqLatencyP99Factor != want.ReqLatencyP99Factor {
			t.Errorf("%v %d nodes: overhead %v, latency %v, p99 %v; want %v, %v, %v", want.Mapping, want.Nodes,
				got.Overhead(), got.LatencyFactor(), got.ReqLatencyP99Factor,
				want.Overhead(), want.LatencyFactor(), want.ReqLatencyP99Factor)
		}
		if got != want {
			t.Errorf("%v %d nodes: cell differs\n got %#v\nwant %#v", want.Mapping, want.Nodes, got, want)
		}
	}
}
