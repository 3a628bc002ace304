package trace

import (
	"fmt"

	"repro/internal/sim"
)

// YCSB models the Yahoo! Cloud Serving Benchmark driver of paper §3.4:
// the Redis evaluation loads 30 K records of 1 KB and replays workloads
// A (50/50 read/update), B (95/5) and C (100% read) with Zipf-distributed
// key popularity.

// OpType is a key-value operation kind.
type OpType int

const (
	// OpRead fetches a record.
	OpRead OpType = iota
	// OpUpdate overwrites a record's value.
	OpUpdate
)

func (o OpType) String() string {
	if o == OpUpdate {
		return "update"
	}
	return "read"
}

// YCSBWorkload names one of the standard mixes.
type YCSBWorkload string

const (
	// WorkloadA is the update-heavy mix: 50% read, 50% update.
	WorkloadA YCSBWorkload = "workload_a"
	// WorkloadB is read-mostly: 95% read, 5% update.
	WorkloadB YCSBWorkload = "workload_b"
	// WorkloadC is read-only.
	WorkloadC YCSBWorkload = "workload_c"
)

// ReadFraction returns the workload's read ratio.
func (w YCSBWorkload) ReadFraction() float64 {
	switch w {
	case WorkloadA:
		return 0.50
	case WorkloadB:
		return 0.95
	case WorkloadC:
		return 1.00
	default:
		panic(fmt.Sprintf("trace: unknown YCSB workload %q", w))
	}
}

// YCSBOp is one generated operation.
type YCSBOp struct {
	Type  OpType
	Key   string
	Value []byte // nil for reads
}

// YCSBGen produces operations for a workload over a keyspace.
type YCSBGen struct {
	Workload  YCSBWorkload
	Records   int
	ValueSize int
	rng       *sim.RNG
	zipf      *sim.Zipf
	valueBuf  []byte
}

// PaperRecords and PaperValueSize are the §3.4 Redis parameters.
const (
	PaperRecords   = 30_000
	PaperValueSize = 1024
	PaperOps       = 10_000
)

// NewYCSBGen returns a generator. Records and valueSize must be positive.
func NewYCSBGen(w YCSBWorkload, records, valueSize int, seed uint64) *YCSBGen {
	if records <= 0 || valueSize <= 0 {
		panic("trace: YCSB needs positive records and value size")
	}
	r := sim.NewRNG(seed)
	g := &YCSBGen{
		Workload:  w,
		Records:   records,
		ValueSize: valueSize,
		rng:       r,
		zipf:      sim.NewZipf(r.Fork(1), uint64(records), 0.99),
		valueBuf:  make([]byte, valueSize),
	}
	for i := range g.valueBuf {
		g.valueBuf[i] = byte('a' + i%26)
	}
	return g
}

// Key formats the i-th record's key the way YCSB does.
func Key(i uint64) string { return fmt.Sprintf("user%010d", i) }

// Next generates one operation. The returned value slice is reused across
// calls; consumers that retain it must copy.
func (g *YCSBGen) Next() YCSBOp {
	key := Key(g.zipf.Next())
	if g.rng.Float64() < g.Workload.ReadFraction() {
		return YCSBOp{Type: OpRead, Key: key}
	}
	return YCSBOp{Type: OpUpdate, Key: key, Value: g.valueBuf}
}

// LoadKeys enumerates every record key for the initial database load.
func (g *YCSBGen) LoadKeys() []string {
	keys := make([]string, g.Records)
	for i := range keys {
		keys[i] = Key(uint64(i))
	}
	return keys
}
