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
// at the default configuration: request and message counts, overhead and
// latency factors. The values were recorded at commit 881d1519dfc6
// (before the engine's counter-based owned mode and the simulator's
// pooled deliveries). Every figure is a deterministic function of the
// seed, so a change that only makes the engine or the simulator cheaper
// keeps them bit for bit; one that changes protocol behaviour (message
// counts, routing, event order) fails here.
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
}

// msgCounts builds the per-kind message counts of a hierarchical cell.
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
			t.Fatalf("%d nodes: %v", want.Nodes, err)
		}
		if got.Requests != want.Requests || got.Messages != want.Messages {
			t.Errorf("%d nodes: protocol outcome changed\n got %s\nwant %s", want.Nodes, got.Dump(), want.Dump())
		}
		if got.Overhead() != want.Overhead() || got.LatencyFactor() != want.LatencyFactor() ||
			got.ReqLatencyP99Factor != want.ReqLatencyP99Factor {
			t.Errorf("%d nodes: overhead %v, latency %v, p99 %v; want %v, %v, %v", want.Nodes,
				got.Overhead(), got.LatencyFactor(), got.ReqLatencyP99Factor,
				want.Overhead(), want.LatencyFactor(), want.ReqLatencyP99Factor)
		}
		if got != want {
			t.Errorf("%d nodes: cell differs\n got %#v\nwant %#v", want.Nodes, got, want)
		}
	}
}
