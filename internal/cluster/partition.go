package cluster

// Deterministic shard partitioner: rendezvous (highest-random-weight)
// hashing of keys over worker names. The coordinator keys a bank by its
// trace and asks for the owner among the least-loaded usable workers.
// Chosen over modulo sharding for its rebalancing property: removing a
// worker reassigns exactly that worker's keys and no others, so a
// mid-sweep worker loss never churns the traces healthy peers prefer (and
// their worker-side trace and result caches stay hot). The partitioner is
// a pure function of (key, workers, seed) — no state, no RNG — so a
// fixed-seed sweep shards identically on every run, which the property
// tests pin.

// fnvOffset/fnvPrime are the FNV-1a 64-bit parameters.
const (
	fnvOffset = 0xcbf29ce484222325
	fnvPrime  = 0x100000001b3
)

// rendezvousScore hashes (seed, worker, key) into the worker's weight for
// the key. FNV-1a over the seed bytes, the worker name, a separator, and
// the key: cheap, dependency-free, and plenty uniform for tens of workers.
func rendezvousScore(key, worker string, seed int64) uint64 {
	h := uint64(fnvOffset)
	s := uint64(seed)
	for i := 0; i < 8; i++ {
		h = (h ^ (s & 0xff)) * fnvPrime
		s >>= 8
	}
	for i := 0; i < len(worker); i++ {
		h = (h ^ uint64(worker[i])) * fnvPrime
	}
	h = (h ^ 0x1f) * fnvPrime // separator: "ab"+"c" must differ from "a"+"bc"
	for i := 0; i < len(key); i++ {
		h = (h ^ uint64(key[i])) * fnvPrime
	}
	return h
}

// Owner returns the index of the worker owning key: the worker with the
// highest rendezvous score. Deterministic for fixed (key, workers, seed);
// ties (a 64-bit hash collision between two workers on one key) break
// toward the lower index, keeping determinism unconditional. Panics on an
// empty worker list — callers decide what "no workers" means (the
// coordinator falls back to local execution before partitioning).
func Owner(key string, workers []string, seed int64) int {
	if len(workers) == 0 {
		panic("cluster: Owner with no workers")
	}
	best, bestScore := 0, rendezvousScore(key, workers[0], seed)
	for i := 1; i < len(workers); i++ {
		if s := rendezvousScore(key, workers[i], seed); s > bestScore {
			best, bestScore = i, s
		}
	}
	return best
}

// Partition assigns every cell key to its owning worker and returns, per
// worker, the indices of the keys it owns (in input order). Every key
// appears in exactly one worker's list; the union over workers is a
// permutation of [0, len(keys)).
func Partition(keys []string, workers []string, seed int64) [][]int {
	out := make([][]int, len(workers))
	for i, k := range keys {
		o := Owner(k, workers, seed)
		out[o] = append(out[o], i)
	}
	return out
}
