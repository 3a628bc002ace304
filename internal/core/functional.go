package core

import (
	"bytes"
	"fmt"

	"repro/internal/funcs/bm25"
	"repro/internal/funcs/compressfn"
	"repro/internal/funcs/cryptofn"
	"repro/internal/funcs/ids"
	"repro/internal/funcs/kvstore"
	"repro/internal/funcs/nat"
	"repro/internal/funcs/ovs"
	"repro/internal/funcs/storagefn"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/trace"
)

// The simulator's timing comes from calibrated cost models, but the
// functions themselves are real implementations. RunFunctional drives a
// benchmark's real code over generated inputs and verifies its outputs
// against ground truth — the execution-driven half of the testbed, and
// the proof that the packages under internal/funcs compute rather than
// pretend.

// FunctionalReport summarizes a functional run.
type FunctionalReport struct {
	Function  string
	Variant   string
	Processed int
	// Verified counts outputs checked against an independent oracle
	// (ground-truth match flags, round-trip identities, table lookups).
	Verified int
	// Failures counts oracle disagreements; a correct build has zero.
	Failures int
	Notes    string
}

func (r FunctionalReport) String() string {
	return fmt.Sprintf("%s/%s: processed %d, verified %d, failures %d (%s)",
		r.Function, r.Variant, r.Processed, r.Verified, r.Failures, r.Notes)
}

// RunFunctional executes n real operations of the benchmark and verifies
// them. Unknown function names return an error rather than a fake pass.
func RunFunctional(function, variant string, n int, seed uint64) (FunctionalReport, error) {
	if n <= 0 {
		return FunctionalReport{}, fmt.Errorf("core: functional run needs n > 0")
	}
	rep := FunctionalReport{Function: function, Variant: variant}
	switch function {
	case "snort", "rem":
		return funcIDS(rep, variant, n, seed)
	case "nat":
		return funcNAT(rep, variant, n, seed)
	case "bm25":
		return funcBM25(rep, variant, n, seed)
	case "redis":
		return funcRedis(rep, variant, n, seed)
	case "mica":
		return funcMICA(rep, variant, n, seed)
	case "crypto":
		return funcCrypto(rep, variant, n, seed)
	case "compress":
		return funcCompress(rep, variant, n, seed)
	case "ovs":
		return funcOVS(rep, n, seed)
	case "fio":
		return funcFio(rep, variant, n, seed)
	default:
		return rep, fmt.Errorf("core: no functional implementation for %q", function)
	}
}

func funcIDS(rep FunctionalReport, variant string, n int, seed uint64) (FunctionalReport, error) {
	mode := ids.Detection
	if rep.Function == "rem" {
		mode = ids.Prevention
	}
	engine, err := ids.NewPaperEngine(trace.RuleSetName(variant), mode, seed)
	if err != nil {
		return rep, err
	}
	pg := trace.NewPayloadGen(engine.RuleSet, seed^1)
	for i := 0; i < n; i++ {
		payload, truth := pg.Next(1500)
		got := engine.Inspect(uint64(i), payload) != ids.Pass
		rep.Processed++
		rep.Verified++
		if got != truth {
			rep.Failures++
		}
	}
	rep.Notes = fmt.Sprintf("%d alerts over %d rules", engine.Alerts(), len(engine.RuleSet.Patterns))
	return rep, nil
}

func funcNAT(rep FunctionalReport, variant string, n int, seed uint64) (FunctionalReport, error) {
	entries := 10_000
	if variant == "1M" {
		entries = 1_000_000
	}
	tbl := nat.GenerateTable(entries, seed)
	// The generated table must be a bijection before any packet crosses
	// it; a broken reverse map would surface as phantom rewrite failures.
	if err := tbl.Validate(); err != nil {
		return rep, err
	}
	pubs := tbl.SomePublic(min(n, entries), 0)
	for i := 0; i < n; i++ {
		pub := pubs[i%len(pubs)]
		h := nat.Header{Src: 0xc0a80001, Dst: pub}
		rep.Processed++
		if !tbl.RewriteInbound(&h) {
			rep.Failures++
			continue
		}
		// Oracle: outbound rewrite must restore the public address.
		back := nat.Header{Src: h.Dst}
		rep.Verified++
		if !tbl.RewriteOutbound(&back) || back.Src != pub {
			rep.Failures++
		}
	}
	rep.Notes = fmt.Sprintf("%d entries, %d misses", tbl.Len(), tbl.Misses())
	return rep, nil
}

func funcBM25(rep FunctionalReport, variant string, n int, seed uint64) (FunctionalReport, error) {
	docs := 100
	if variant == "1Kdocs" {
		docs = 1000
	}
	idx := bm25.NewIndex(bm25.GenCorpus(docs, 10, seed))
	r := sim.NewRNG(seed ^ 2)
	for i := 0; i < n; i++ {
		q := bm25.GenQuery(3, r)
		top := idx.TopK(q, 10)
		rep.Processed++
		rep.Verified++
		// Oracle: results sorted and consistent with direct scoring.
		for j := 1; j < len(top); j++ {
			if top[j].Score > top[j-1].Score {
				rep.Failures++
				break
			}
		}
		if len(top) > 0 && !stats.ApproxEqual(top[0].Score, idx.Score(top[0].DocID, q), 1e-9) {
			rep.Failures++
		}
	}
	rep.Notes = fmt.Sprintf("%d documents", idx.NumDocs())
	return rep, nil
}

func funcRedis(rep FunctionalReport, variant string, n int, seed uint64) (FunctionalReport, error) {
	w := trace.YCSBWorkload(variant)
	gen := trace.NewYCSBGen(w, trace.PaperRecords, trace.PaperValueSize, seed)
	store := kvstore.NewStore()
	val := make([]byte, trace.PaperValueSize)
	for _, k := range gen.LoadKeys() {
		store.Set(k, val)
	}
	for i := 0; i < n; i++ {
		op := gen.Next()
		var cmd kvstore.Command
		if op.Type == trace.OpRead {
			cmd = kvstore.Command{Op: kvstore.OpGet, Key: op.Key}
		} else {
			cmd = kvstore.Command{Op: kvstore.OpSet, Key: op.Key, Value: op.Value}
		}
		resp, err := store.ServeWire(kvstore.EncodeCommand(cmd))
		rep.Processed++
		rep.Verified++
		if err != nil || resp[0] != '+' {
			rep.Failures++
		}
	}
	rep.Notes = fmt.Sprintf("%d records loaded", store.Len())
	return rep, nil
}

func funcMICA(rep FunctionalReport, variant string, n int, seed uint64) (FunctionalReport, error) {
	batch := 4
	if variant == "batch32" {
		batch = 32
	}
	m := kvstore.NewMICA(8)
	gen := trace.NewYCSBGen(trace.WorkloadC, 10_000, 64, seed)
	for _, k := range gen.LoadKeys() {
		m.Set(k, []byte(k)) // value = key, a checkable oracle
	}
	keys := make([]string, batch)
	for i := 0; i < n; i++ {
		for j := range keys {
			keys[j] = gen.Next().Key
		}
		vals := m.GetBatch(keys)
		rep.Processed++
		rep.Verified++
		for j, v := range vals {
			if v == nil || string(v) != keys[j] {
				rep.Failures++
				break
			}
		}
	}
	rep.Notes = fmt.Sprintf("hit rate %.3f", m.HitRate())
	return rep, nil
}

func funcCrypto(rep FunctionalReport, variant string, n int, seed uint64) (FunctionalReport, error) {
	r := sim.NewRNG(seed)
	buf := make([]byte, 4096)
	for i := range buf {
		buf[i] = byte(r.Uint64())
	}
	switch variant {
	case "aes":
		c := cryptofn.NewAESCipher("functional")
		for i := 0; i < n; i++ {
			ct := c.Encrypt(buf)
			rep.Processed++
			rep.Verified++
			if !bytes.Equal(c.Decrypt(ct), buf) {
				rep.Failures++
			}
		}
	case "sha1":
		ref := cryptofn.SHA1Sum(buf)
		for i := 0; i < n; i++ {
			rep.Processed++
			rep.Verified++
			if cryptofn.SHA1Sum(buf) != ref {
				rep.Failures++
			}
		}
	case "rsa":
		// RSA ops are ~ms-scale on real silicon; cap the functional
		// count so the harness stays quick.
		if n > 50 {
			n = 50
		}
		msg := []byte("functional harness")
		for i := 0; i < n; i++ {
			sig, err := cryptofn.RSASign(msg)
			rep.Processed++
			rep.Verified++
			if err != nil || cryptofn.RSAVerify(msg, sig) != nil {
				rep.Failures++
			}
		}
	default:
		return rep, fmt.Errorf("core: unknown crypto variant %q", variant)
	}
	rep.Notes = "stdlib crypto round trips"
	return rep, nil
}

func funcCompress(rep FunctionalReport, variant string, n int, seed uint64) (FunctionalReport, error) {
	data := compressfn.GenCorpus(compressfn.Input(variant), compressfn.ChunkBytes, seed)
	var lastRatio float64
	for i := 0; i < n; i++ {
		comp, err := compressfn.Compress(data, compressfn.PaperLevel)
		rep.Processed++
		rep.Verified++
		if err != nil {
			rep.Failures++
			continue
		}
		back, err := compressfn.Decompress(comp)
		if err != nil || !bytes.Equal(back, data) {
			rep.Failures++
		}
		lastRatio = compressfn.Ratio(data, comp)
	}
	rep.Notes = fmt.Sprintf("ratio %.2f:1 at level %d", lastRatio, compressfn.PaperLevel)
	return rep, nil
}

func funcOVS(rep FunctionalReport, n int, seed uint64) (FunctionalReport, error) {
	sw := ovs.NewSwitch()
	keys := ovs.GenForwardingRules(sw, 16)
	r := sim.NewRNG(seed)
	for i := 0; i < n; i++ {
		k := keys[r.Intn(len(keys))]
		k.SrcPort = uint16(r.Uint64()) // vary flows, keep tenant
		a := sw.Classify(k)
		rep.Processed++
		rep.Verified++
		if a.OutPort < 0 {
			rep.Failures++ // tenant traffic must never hit the drop rule
		}
	}
	rep.Notes = fmt.Sprintf("megaflow hit rate %.2f", sw.HitRate())
	return rep, nil
}

func funcFio(rep FunctionalReport, variant string, n int, seed uint64) (FunctionalReport, error) {
	disk := storagefn.NewRAMDisk(1<<26, storagefn.BlockBytes) // 64 MB functional slice
	job := storagefn.JobSpec{Op: storagefn.RandWrite, Blocks: int64(n), Seed: seed}
	offsets := job.NextOffsets(disk.NumBlocks())
	block := make([]byte, storagefn.BlockBytes)
	out := make([]byte, storagefn.BlockBytes)
	for _, off := range offsets {
		// Write a block stamped with its offset, read it back.
		block[0] = byte(off)
		block[1] = byte(off >> 8)
		rep.Processed++
		rep.Verified++
		if variant == "write" || disk.Reads() == 0 {
			if err := disk.WriteBlock(off, block); err != nil {
				rep.Failures++
				continue
			}
		}
		if err := disk.ReadBlock(off, out); err != nil {
			rep.Failures++
			continue
		}
		if out[0] != block[0] || out[1] != block[1] {
			rep.Failures++
		}
	}
	rep.Notes = fmt.Sprintf("%d reads, %d writes on a %d-block device",
		disk.Reads(), disk.Writes(), disk.NumBlocks())
	return rep, nil
}
