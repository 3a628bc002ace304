// Package accel models the three BlueField-2 fixed-function accelerators
// of paper §2.2: (A1) regular-expression matching, (A2) public-key
// cryptography, and (A3) Deflate compression.
//
// All three are DOCA-style engines: SNIC CPU cores acquire work (DPDK for
// packets, file buffers for compression), stage it into task buffers, and
// submit task batches; the engine retires batches at a fixed service rate
// and returns results to the buffers. Two properties drive the paper's
// Key Observations 2 and 3 and are modelled explicitly:
//
//   - the engines' sustained rate is ~50 Gb/s, half the 100 Gb/s line
//     rate, so the accelerators alone can never keep up with the wire;
//   - batching amortizes submission overhead but adds a batch-assembly
//     wait, so accelerator p99 latency sits tens of microseconds above a
//     busy-polling CPU even at low load (Table 4's 17.43 µs vs 5.07 µs).
package accel

import (
	"errors"
	"fmt"

	"repro/internal/sim"
)

// Health is an engine's operational state. Real BlueField-class engines
// are not always healthy: Liu et al. and the DPA off-path studies report
// engine stalls, saturation cliffs, and outright wedges requiring a
// driver-level reset. The fault layer drives these transitions.
type Health int

const (
	// Healthy: accepting and retiring work normally.
	Healthy Health = iota
	// Stalled: accepting work, but the pipeline is wedged — queued batches
	// do not retire until the stall clears.
	Stalled
	// Down: crashed. Submissions are rejected with an *EngineError until
	// Recover (the driver reset) runs.
	Down
)

func (h Health) String() string {
	switch h {
	case Healthy:
		return "healthy"
	case Stalled:
		return "stalled"
	case Down:
		return "down"
	default:
		return fmt.Sprintf("health(%d)", int(h))
	}
}

// ErrEngineDown is the sentinel matched by errors.Is for any submission
// rejected because the target engine is not accepting work.
var ErrEngineDown = errors.New("accel: engine down")

// EngineError is the typed rejection returned when work is submitted to a
// crashed engine. A silent drop here would orphan the caller's completion
// callback — the failover machinery needs the rejection to reroute.
type EngineError struct {
	Engine string
	State  Health
}

func (e *EngineError) Error() string {
	return fmt.Sprintf("accel: %s is %s, submission rejected", e.Engine, e.State)
}

// Unwrap lets errors.Is(err, ErrEngineDown) match.
func (e *EngineError) Unwrap() error { return ErrEngineDown }

// ByteEngine is a fixed-rate streaming engine (REM scan, Deflate): task
// service time is proportional to payload bytes.
type ByteEngine struct {
	Name string
	// RateBits is the engine's sustained processing rate in bits/s.
	RateBits float64
	// PerTaskOverhead is the descriptor-handling time per task within a
	// batch, independent of size.
	PerTaskOverhead sim.Duration

	batch *sim.BatchStation
	eng   *sim.Engine

	down bool
	// rateFactor scales the effective service rate in (0,1]; the fault
	// layer lowers it to model clock/thermal degradation. 0 means unset.
	rateFactor float64
	rejected   uint64
}

// ByteEngineConfig carries the batching parameters of a ByteEngine.
type ByteEngineConfig struct {
	Name            string
	RateBits        float64
	MaxBatch        int
	MaxWait         sim.Duration
	PerBatch        sim.Duration // doorbell + descriptor DMA per batch
	PerTaskOverhead sim.Duration
}

// NewByteEngine builds a streaming engine.
func NewByteEngine(eng *sim.Engine, cfg ByteEngineConfig) *ByteEngine {
	if cfg.RateBits <= 0 {
		panic(fmt.Sprintf("accel: %s rate must be positive", cfg.Name))
	}
	return &ByteEngine{
		Name:            cfg.Name,
		RateBits:        cfg.RateBits,
		PerTaskOverhead: cfg.PerTaskOverhead,
		batch:           sim.NewBatchStation(eng, cfg.MaxBatch, cfg.MaxWait, cfg.PerBatch),
		eng:             eng,
	}
}

// Submit queues one task of size bytes; done fires when its batch
// retires. Submitting to a crashed engine returns an *EngineError
// (matching ErrEngineDown) and done never fires — callers that can
// failover reroute on the rejection. Task jobs are pooled, so accepted
// submissions allocate nothing in steady state.
func (b *ByteEngine) Submit(size int, done func(start, end sim.Time)) error {
	if b.down {
		b.rejected++
		return &EngineError{Engine: b.Name, State: Down}
	}
	svc := sim.DurationOf(size, b.effectiveRate()) + b.PerTaskOverhead
	b.batch.Exec(svc, done)
	return nil
}

// effectiveRate applies any degradation factor to the nominal rate.
func (b *ByteEngine) effectiveRate() float64 {
	if b.rateFactor > 0 {
		return b.RateBits * b.rateFactor
	}
	return b.RateBits
}

// Fail crashes the engine: submissions are rejected until Recover.
func (b *ByteEngine) Fail() { b.down = true }

// Recover resets a crashed engine (the driver-level reset) and clears any
// active stall gate. Work queued before a stall resumes retiring; a rate
// degradation persists until SetRateFactor(1).
func (b *ByteEngine) Recover() {
	b.down = false
	b.batch.Stall(b.eng.Now())
}

// Stall wedges the engine pipeline until t: tasks keep queueing but no
// batch retires before the stall clears.
func (b *ByteEngine) Stall(t sim.Time) { b.batch.Stall(t) }

// SetRateFactor degrades the engine's service rate to f × nominal for
// subsequently submitted tasks. f must be in (0,1]; 1 restores full rate.
func (b *ByteEngine) SetRateFactor(f float64) {
	if f <= 0 || f > 1 {
		panic(fmt.Sprintf("accel: %s rate factor %v outside (0,1]", b.Name, f))
	}
	b.rateFactor = f
}

// Health reports the engine's current operational state.
func (b *ByteEngine) Health() Health {
	switch {
	case b.down:
		return Down
	case b.batch.Stalled():
		return Stalled
	default:
		return Healthy
	}
}

// Observe installs telemetry observers bound to this engine: obs on the
// internal engine station, batchObs on batch assembly. Either may be nil.
func (b *ByteEngine) Observe(obs sim.StationObserver, batchObs sim.BatchObserver) {
	b.batch.Observe(obs, batchObs)
}

// Completed returns retired task count.
func (b *ByteEngine) Completed() uint64 { return b.batch.Completed() }

// Rejected returns submissions refused while the engine was down.
func (b *ByteEngine) Rejected() uint64 { return b.rejected }

// Utilization returns the engine busy fraction.
func (b *ByteEngine) Utilization() float64 { return b.batch.Utilization() }

// QueueLen returns batches waiting behind the engine.
func (b *ByteEngine) QueueLen() int { return b.batch.EngineQueueLen() }

// The engines' batch-assembly timeouts: a task waits at most this long
// for its batch to fill before the batch is submitted anyway.
const (
	REMMaxWait     = 11 * sim.Microsecond
	DeflateMaxWait = 20 * sim.Microsecond
)

// REMEngine returns the BlueField-2 regular-expression engine (RXP).
// Sustained scan rate ~50 Gb/s regardless of rule set (paper Fig. 5: "the
// maximum throughput of the SNIC accelerator processing REM is capped to
// ~50 Gbps (regardless of the input rule set)").
func REMEngine(eng *sim.Engine) *ByteEngine {
	// Raw scan rate 66 Gb/s; after per-batch doorbell/DMA and per-task
	// descriptor overheads the effective goodput on MTU packets is
	// ~49 Gb/s, the paper's observed cap.
	return NewByteEngine(eng, ByteEngineConfig{
		Name:            "BF-2 REM (RXP)",
		RateBits:        66e9,
		MaxBatch:        48,
		MaxWait:         REMMaxWait,
		PerBatch:        2500 * sim.Nanosecond,
		PerTaskOverhead: 25 * sim.Nanosecond,
	})
}

// CompressEngine returns the BlueField-2 Deflate engine. Also caps near
// 50 Gb/s; level-9 Deflate on the host is several times slower, which is
// where Compression's 3.5× accelerator win comes from.
func CompressEngine(eng *sim.Engine) *ByteEngine {
	// Compression tasks are file chunks (tens of KB), so per-batch
	// overhead amortizes well; effective goodput on 64 KB chunks is
	// ~52 Gb/s.
	return NewByteEngine(eng, ByteEngineConfig{
		Name:            "BF-2 Deflate",
		RateBits:        55e9,
		MaxBatch:        16,
		MaxWait:         DeflateMaxWait,
		PerBatch:        3 * sim.Microsecond,
		PerTaskOverhead: 250 * sim.Nanosecond,
	})
}

// PKAAlgo names a public-key/crypto algorithm the PKA engine supports
// (24 in hardware; the paper evaluates these three).
type PKAAlgo string

const (
	AlgoAES PKAAlgo = "aes-256"
	AlgoRSA PKAAlgo = "rsa-2048"
	AlgoSHA PKAAlgo = "sha-1"
)

// PKAEngine is the public-key-acceleration block: the SNIC CPU programs a
// memory region and rings a command-count register; the engine retires
// commands at per-algorithm rates.
//
// Rates are expressed as bytes/s for bulk algorithms (AES, SHA-1 over
// buffers) and ops/s for RSA (per 2048-bit private-key operation).
type PKAEngine struct {
	// BulkRateBits is the engine's bulk cipher/hash rate.
	BulkRateBits map[PKAAlgo]float64
	// OpRate is the op-based rate for modular-exponentiation algorithms.
	OpRate map[PKAAlgo]float64
	// CommandOverhead is the fixed per-command engine time.
	CommandOverhead sim.Duration

	station *sim.Station
	eng     *sim.Engine

	down       bool
	rateFactor float64
	rejected   uint64
}

// NewPKAEngine returns the BlueField-2 crypto block with calibrated
// rates. Calibration anchors (paper Fig. 4 discussion): the host with
// AES-NI/RDRAND beats the engine by 38.5% on AES and 91.2% on RSA, while
// the engine beats the host by 1.89× on SHA-1 (no good ISA path).
func NewPKAEngine(eng *sim.Engine) *PKAEngine {
	return &PKAEngine{
		BulkRateBits: map[PKAAlgo]float64{
			AlgoAES: 38e9, // host AES-NI path reaches ~47 Gb/s
			AlgoSHA: 29e9, // host SHA-1 path reaches ~13.2 Gb/s
		},
		OpRate: map[PKAAlgo]float64{
			AlgoRSA: 21_800, // host RSA-2048 reaches ~40 kops/s
		},
		CommandOverhead: 1500 * sim.Nanosecond,
		station:         sim.NewStation(eng, 1),
		eng:             eng,
	}
}

// SubmitBulk queues size bytes of a bulk algorithm. A crashed engine
// rejects the command with an *EngineError (matching ErrEngineDown).
func (p *PKAEngine) SubmitBulk(algo PKAAlgo, size int, done func(start, end sim.Time)) error {
	rate, ok := p.BulkRateBits[algo]
	if !ok {
		panic(fmt.Sprintf("accel: %s is not a bulk PKA algorithm", algo))
	}
	if p.down {
		p.rejected++
		return &EngineError{Engine: "BF-2 PKA", State: Down}
	}
	if p.rateFactor > 0 {
		rate *= p.rateFactor
	}
	svc := sim.DurationOf(size, rate) + p.CommandOverhead
	p.station.Exec(svc, done)
	return nil
}

// SubmitOp queues one op-based command (e.g. one RSA-2048 signature).
// A crashed engine rejects it with an *EngineError.
func (p *PKAEngine) SubmitOp(algo PKAAlgo, done func(start, end sim.Time)) error {
	rate, ok := p.OpRate[algo]
	if !ok {
		panic(fmt.Sprintf("accel: %s is not an op-based PKA algorithm", algo))
	}
	if p.down {
		p.rejected++
		return &EngineError{Engine: "BF-2 PKA", State: Down}
	}
	if p.rateFactor > 0 {
		rate *= p.rateFactor
	}
	svc := sim.Duration(float64(sim.Second)/rate) + p.CommandOverhead
	p.station.Exec(svc, done)
	return nil
}

// Fail crashes the engine: submissions are rejected until Recover.
func (p *PKAEngine) Fail() { p.down = true }

// Recover resets a crashed engine and clears any stall gate.
func (p *PKAEngine) Recover() {
	p.down = false
	p.station.StallUntil(p.eng.Now())
}

// Stall wedges the command pipeline until t.
func (p *PKAEngine) Stall(t sim.Time) { p.station.StallUntil(t) }

// SetRateFactor degrades the per-command rates to f × nominal.
func (p *PKAEngine) SetRateFactor(f float64) {
	if f <= 0 || f > 1 {
		panic(fmt.Sprintf("accel: PKA rate factor %v outside (0,1]", f))
	}
	p.rateFactor = f
}

// Health reports the engine's current operational state.
func (p *PKAEngine) Health() Health {
	switch {
	case p.down:
		return Down
	case p.station.Stalled():
		return Stalled
	default:
		return Healthy
	}
}

// Observe installs a telemetry observer bound to the command station.
func (p *PKAEngine) Observe(obs sim.StationObserver) {
	p.station.Observe(obs)
}

// Completed returns retired command count.
func (p *PKAEngine) Completed() uint64 { return p.station.Completed() }

// Rejected returns submissions refused while the engine was down.
func (p *PKAEngine) Rejected() uint64 { return p.rejected }

// Utilization returns the engine busy fraction.
func (p *PKAEngine) Utilization() float64 { return p.station.Utilization() }

// QueueLen returns commands waiting behind the engine. Hardware exposes
// this as the command-count register delta (commands rung minus
// completions DMA'd back); earlier versions of this model omitted the
// read, which left spill policies blind to crypto backlog — a policy
// watermark can only be as good as the counter beneath it.
func (p *PKAEngine) QueueLen() int { return p.station.QueueLen() }

// StagingCyclesPerTask is the SNIC CPU work to acquire one packet/buffer
// with DPDK and stage it into an accelerator task. Sized so that exactly
// two Arm cores keep the REM engine fed at its ~50 Gb/s maximum on MTU
// packets (paper §3.4: "we use two SNIC CPU cores for processing DPDK
// packets and supplying the packets to the SNIC accelerator").
const StagingCyclesPerTask = 340.0

// StagingCyclesPerByte is the additional staging cost per payload byte
// (buffer fill via DMA descriptor setup).
const StagingCyclesPerByte = 0.02
