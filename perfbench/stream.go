package main

import (
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"strconv"

	"segbus/internal/conform"
	"segbus/internal/core"
	"segbus/internal/emulator"
	"segbus/internal/m2t"
	"segbus/internal/serve"
)

// Workload shape: 2 closed-loop clients (one per CPU of the reference box),
// a 64-model hot set for serve_warm, a 256-model pre-warmed set plus
// two fresh keys in every 8-item batch for serve_batch, and a cold key
// space far larger than segbus-served's 1024-entry cache.
const (
	clients         = 2
	cacheEntries    = 1024 // segbus-served -cache default
	hotModels       = 64
	batchWarmModels = 256
	batchItems      = 8
	batchFresh      = 2 // fresh keys per batch: a quarter of the items
	coldWarmups     = 32

	// warmBatch is the batch size that pre-warms serve_batch's set. A
	// batch of all-new keys admits one emulation per item, and the
	// default pool admits 3 per CPU (workers plus queue), so an 8-item
	// warm-up batch would be shed with 429s on a 2-CPU box.
	warmBatch = 4

	warmCorpus  = hotModels
	batchCorpus = 2 * batchWarmModels // the second half feeds fresh keys
	coldCorpus  = 1024
)

// overrideSizes and policies span the fresh-key space: every fresh key
// is a (model, package_size override, policy) triple. An override
// always changes the rendered platform, so two triples share a
// canonical key only when model, size and policy all agree.
var (
	overrideSizes = sizeRange(4, 64)
	policies      = []string{"bu-first", "fifo", "fixed-priority"}
)

func sizeRange(lo, hi int) []int {
	out := make([]int, 0, hi-lo+1)
	for s := lo; s <= hi; s++ {
		out = append(out, s)
	}
	return out
}

// combos is the number of (size, policy) pairs one model contributes
// to a key space.
var combos = len(overrideSizes) * len(policies)

// model is one servable case of the seeded corpus with its request
// JSON pre-rendered.
type model struct {
	c        *conform.Case
	psdf     string
	psm      string
	prefix   []byte // JSON of EstimateRequest{PSDF, PSM} without its closing brace
	single   []byte // the full JSON body of the plain request
	identity [sha256.Size]byte
}

// key names one estimate request: a corpus model, an optional package
// size override (0: none) and an optional policy ("" : the default).
type key struct {
	model  int
	size   int
	policy string
}

// corpus is the seeded model set of one workload.
type corpus struct {
	models []*model
}

// newCorpus draws the first n distinct servable models of the seed's
// conform generator stream. Two cases count as the same model when
// their schemes agree up to the platform's package size, so override
// triples of distinct models never collide on a canonical key.
func newCorpus(seed int64, n int) (*corpus, error) {
	cases, err := conform.ServableCases(seed, n+n/4+16, nil)
	if err != nil {
		return nil, err
	}
	c := &corpus{}
	seen := make(map[[sha256.Size]byte]bool, n)
	for _, cs := range cases {
		if len(c.models) == n {
			break
		}
		m, err := newModel(cs)
		if err != nil {
			return nil, err
		}
		if seen[m.identity] {
			continue
		}
		seen[m.identity] = true
		c.models = append(c.models, m)
	}
	if len(c.models) < n {
		return nil, fmt.Errorf("seed %d: only %d distinct servable models, need %d", seed, len(c.models), n)
	}
	return c, nil
}

func newModel(cs *conform.Case) (*model, error) {
	psdfXML, psmXML, err := cs.Schemes()
	if err != nil {
		return nil, err
	}
	single, err := json.Marshal(serve.EstimateRequest{PSDF: string(psdfXML), PSM: string(psmXML)})
	if err != nil {
		return nil, err
	}
	plat := cs.Doc.Platform.Clone()
	plat.PackageSize = 1
	normPSM, err := m2t.GeneratePSM(plat)
	if err != nil {
		return nil, err
	}
	h := sha256.New()
	h.Write(psdfXML)
	h.Write([]byte{0})
	h.Write(normPSM)
	m := &model{
		c:      cs,
		psdf:   string(psdfXML),
		psm:    string(psmXML),
		prefix: single[:len(single)-1],
		single: single,
	}
	copy(m.identity[:], h.Sum(nil))
	return m, nil
}

// body appends the JSON request body of k to dst. The bytes equal
// json.Marshal of the corresponding serve.EstimateRequest.
func (c *corpus) body(dst []byte, k key) []byte {
	m := c.models[k.model]
	if k.size == 0 && k.policy == "" {
		return append(dst, m.single...)
	}
	dst = append(dst, m.prefix...)
	if k.size > 0 {
		dst = append(dst, `,"package_size":`...)
		dst = strconv.AppendInt(dst, int64(k.size), 10)
	}
	if k.policy != "" {
		dst = append(dst, `,"policy":"`...)
		dst = append(dst, k.policy...)
		dst = append(dst, '"')
	}
	return append(dst, '}')
}

// schemeBytes is the size of k's two XML schemes.
func (c *corpus) schemeBytes(k key) int {
	m := c.models[k.model]
	return len(m.psdf) + len(m.psm)
}

// oracle is the CLI pipeline's report JSON for k: the in-memory model
// estimated on its platform with the override and policy applied, as
// segbus-load -diff computes it.
func (c *corpus) oracle(k key) ([]byte, error) {
	m := c.models[k.model]
	plat := m.c.Doc.Platform.Clone()
	if k.size > 0 {
		plat.PackageSize = k.size
	}
	pol, err := policyOf(k.policy)
	if err != nil {
		return nil, err
	}
	est, err := core.Estimate(m.c.Doc.Model, plat, core.Options{Policy: pol})
	if err != nil {
		return nil, err
	}
	return est.Report.JSON()
}

// policyOf maps a request's policy name as segbus-served does.
func policyOf(name string) (emulator.Policy, error) {
	switch name {
	case "", "bu-first":
		return emulator.PolicyBUFirst, nil
	case "fifo":
		return emulator.PolicyFIFO, nil
	case "fixed-priority":
		return emulator.PolicyFixedPriority, nil
	}
	return 0, fmt.Errorf("unknown policy %q", name)
}

// freshKey maps index i of a fresh-key space over models [lo, hi) to
// its triple. The mapping is injective for i < (hi-lo)*combos: model i
// mod n, and round i/n picks a (size, policy) pair offset per model so
// consecutive keys mix sizes and policies.
func freshKey(lo, hi, i int) (key, bool) {
	n := hi - lo
	if i < 0 || i >= n*combos {
		return key{}, false
	}
	mi := i % n
	combo := (i/n + 7*mi) % combos
	return key{
		model:  lo + mi,
		size:   overrideSizes[combo%len(overrideSizes)],
		policy: policies[combo/len(overrideSizes)],
	}, true
}

// mix is splitmix64 over (seed, i): the serve streams are pure
// functions of the seed and the operation index, so the same seed gives
// the same stream whatever order the clients claim operations in.
func mix(seed int64, i uint64) uint64 {
	z := uint64(seed)*0x9e3779b97f4a7c15 + (i+1)*0xbf58476d1ce4e5b9
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// The three serve streams. Operation i of a stream is one HTTP request:
// its keys (one for /estimate, batchItems for /estimate/batch) and
// whether it is a batch.

// warmOp is a verbatim repeat of one hot-set model served during set-up.
func warmOp(seed int64, i int) key {
	return key{model: int(mix(seed, uint64(i)) % hotModels)}
}

// coldOp is the i-th timed key of serve_cold; the first coldWarmups
// keys of the space belong to set-up.
func coldOp(i int) (key, bool) {
	return freshKey(0, coldCorpus, coldWarmups+i)
}

// batchOp fills dst with the items of batch i: batchFresh fresh keys at
// seeded positions, the rest drawn uniformly from the pre-warmed set.
// Fresh key j of batch i is number batchFresh*i+j of the fresh space
// over the corpus's second half, so no two batches share a fresh key.
func batchOp(seed int64, i int, dst []key) ([]key, bool) {
	dst = dst[:0]
	r := mix(seed, uint64(i))
	a := int(r % batchItems)
	b := int((r / batchItems) % (batchItems - 1))
	if b >= a {
		b++
	}
	fresh := 0
	for j := 0; j < batchItems; j++ {
		if j == a || j == b {
			k, ok := freshKey(batchWarmModels, batchCorpus, batchFresh*i+fresh)
			if !ok {
				return dst, false
			}
			fresh++
			dst = append(dst, k)
			continue
		}
		w := mix(seed^0x5bd1e995, uint64(i*batchItems+j)) % batchWarmModels
		dst = append(dst, key{model: int(w)})
	}
	return dst, true
}

// batchBody appends the /estimate/batch body for items to dst; the
// bytes equal json.Marshal of the serve.BatchRequest.
func (c *corpus) batchBody(dst []byte, items []key) []byte {
	dst = append(dst, `{"items":[`...)
	for j, k := range items {
		if j > 0 {
			dst = append(dst, ',')
		}
		dst = c.body(dst, k)
	}
	return append(dst, "]}"...)
}
