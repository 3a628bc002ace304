package core

import (
	"repro/internal/accel"
	"repro/internal/cpu"
	"repro/internal/funcs/compressfn"
	"repro/internal/funcs/cryptofn"
	"repro/internal/funcs/nat"
	"repro/internal/netstack"
)

// Exemplar pipelines: the two tax chains §2 describes as sequences of
// functions, assembled from the calibrated per-function models in
// internal/funcs and the catalog. These are what `snicbench -exp
// pipeline` measures and what the saturation search compares fallback
// policies on.

// hostPerByteCycles converts a calibrated single-core host byte rate
// (bits/s, the internal/funcs calibration currency) into the host
// spec's per-byte cycle cost: the model's cpuTime divides cycles by
// IPC at BaseHz, so cycles/byte = 8·IPC·BaseHz/rate.
func hostPerByteCycles(rateBits float64) float64 {
	spec := cpu.XeonGold6140()
	return 8 * spec.IPC * spec.BaseHz / rateBits
}

// CryptoCompressSendPipeline chains the egress tax path: encrypt the
// payload on the PKA bulk engine (AES), deflate the ciphertext on the
// compression engine, then frame and transmit the shrunken result on a
// SNIC core. Requests are compressfn corpus chunks; the compress
// phase's payload transform comes from actually deflating a calibrated
// chunk (compressfn.ExpectedRatio), and both engines carry the host
// software cost model (AES-NI, single-core ISA-L) for policies that
// spill to host cores under load.
func CryptoCompressSendPipeline() *PipelineSpec {
	ratio := compressfn.ExpectedRatio(compressfn.InputApp)
	respSize := int(float64(compressfn.ChunkBytes) / ratio)
	return &PipelineSpec{
		Name:     "crypto-compress-send",
		Stack:    netstack.KindDPDK,
		ReqSize:  compressfn.ChunkBytes,
		RespSize: respSize,
		Phases: []PhaseSpec{
			{
				Name:     "encrypt",
				Resource: ResEngine,
				Engine:   EnginePKABulk, PKAAlgo: accel.AlgoAES,
				// Host fallback: the AES-NI software path.
				SpillPerByteCycles: hostPerByteCycles(cryptofn.CalibratedHostRates().AESBits),
			},
			{
				Name:     "compress",
				Resource: ResEngine,
				Engine:   EngineDeflate,
				// Host fallback: single-core ISA-L deflate.
				SpillPerByteCycles: hostPerByteCycles(compressfn.HostRates(compressfn.InputApp)),
				OutScale:           1 / ratio,
			},
			{
				// Framing + transmit bookkeeping on a SNIC serving core;
				// the TX-side stack cycles land here automatically (last
				// CPU phase).
				Name:       "send",
				Resource:   ResSNICCore,
				BaseCycles: 600, PerByteCycles: 0.05,
				// Portable per-packet code pays the Arm cores' gap.
				CycleFactor: armGap(cpu.XeonGold6140(), cpu.BlueField2Arm()),
			},
		},
		KneeP99Mult: 3.0,
	}
}

// NATIDSPipeline chains the ingress tax path: translate each packet
// against a 10 K-entry NAT table on a host core, then match it against
// the file_executable rule set on the REM engine. Packet shape and the
// REM software model are the rem catalog row (DPDK, CTU mixed sizes,
// MemIntensity 0.3, 18 MiB rule working set); the NAT phase's working
// set is the generated table's real footprint.
func NATIDSPipeline() *PipelineSpec {
	table := nat.GenerateTable(nat.PaperEntrySizes[0], 0x7ab1e)
	return &PipelineSpec{
		Name:    "nat-ids",
		Stack:   netstack.KindDPDK,
		ReqSize: 745, RespSize: 32,
		Mixed: true,
		Phases: []PhaseSpec{
			{
				Name:       "nat",
				Resource:   ResHostCore,
				BaseCycles: 380, CycleFactor: 1,
				MemIntensity: 0.45,
				WorkingSet:   table.WorkingSetBytes(),
			},
			{
				Name:     "ids-match",
				Resource: ResEngine,
				Engine:   EngineREM,
				// Host fallback: the software REM scan for
				// file_executable (rem catalog cycle model).
				SpillBaseCycles: 420, SpillPerByteCycles: 1.75,
				MemIntensity: 0.3,
				WorkingSet:   18 << 20,
			},
		},
		KneeP99Mult: 2.5,
	}
}
