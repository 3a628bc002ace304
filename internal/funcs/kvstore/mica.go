package kvstore

import "fmt"

// MICA is the kernel-bypass store of Lim et al. [42] as the paper runs
// it: a partitioned design where each partition is owned by one core
// (EREW mode), requests are steered to the owning partition by key hash,
// and clients batch GETs (batch sizes 4 and 32 in Table 3) to amortize
// per-message overhead.
type MICA struct {
	partitions []partition
	gets, hits uint64
}

type partition struct {
	data map[string][]byte
}

// NewMICA returns a store with the given partition count (one per
// serving core; 8 in the paper's runs).
func NewMICA(partitions int) *MICA {
	if partitions <= 0 {
		panic("kvstore: MICA needs at least one partition")
	}
	m := &MICA{partitions: make([]partition, partitions)}
	for i := range m.partitions {
		m.partitions[i].data = make(map[string][]byte)
	}
	return m
}

// NumPartitions returns the partition count.
func (m *MICA) NumPartitions() int { return len(m.partitions) }

// Partition returns the owning partition index for a key.
func (m *MICA) Partition(key string) int {
	return int(keyHash(key) % uint64(len(m.partitions)))
}

// Set stores a copy of value in the key's owning partition.
func (m *MICA) Set(key string, value []byte) {
	p := &m.partitions[m.Partition(key)]
	v := make([]byte, len(value))
	copy(v, value)
	p.data[key] = v
}

// Get fetches from the owning partition.
func (m *MICA) Get(key string) ([]byte, bool) {
	m.gets++
	v, ok := m.partitions[m.Partition(key)].data[key]
	if ok {
		m.hits++
	}
	return v, ok
}

// GetBatch serves a client batch. All keys are looked up; the returned
// slice is parallel to keys with nil for misses. Batches that span
// partitions are legal — the client library splits them per partition in
// real MICA; here the split cost is the runner's concern, the semantics
// are the store's.
func (m *MICA) GetBatch(keys []string) [][]byte {
	out := make([][]byte, len(keys))
	for i, k := range keys {
		v, ok := m.Get(k)
		if ok {
			out[i] = v
		}
	}
	return out
}

// Len returns total records across partitions.
func (m *MICA) Len() int {
	n := 0
	for i := range m.partitions {
		n += len(m.partitions[i].data)
	}
	return n
}

// PartitionLens returns per-partition record counts, for balance checks.
func (m *MICA) PartitionLens() []int {
	out := make([]int, len(m.partitions))
	for i := range m.partitions {
		out[i] = len(m.partitions[i].data)
	}
	return out
}

// Gets and Hits expose counters.
func (m *MICA) Gets() uint64 { return m.gets }
func (m *MICA) Hits() uint64 { return m.hits }

// HitRate returns the fraction of GETs that found a record.
func (m *MICA) HitRate() float64 {
	if m.gets == 0 {
		return 0
	}
	return float64(m.hits) / float64(m.gets)
}

func (m *MICA) String() string {
	return fmt.Sprintf("MICA(%d partitions, %d records)", m.NumPartitions(), m.Len())
}
