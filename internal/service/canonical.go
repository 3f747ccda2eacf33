package service

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"

	"quarc/internal/experiments"
)

// Canonical request hashing: the result cache is content-addressed by a
// SHA-256 over a canonical JSON encoding of everything the response payload
// depends on — the normalised configuration (defaults filled in, so a
// request spelling out the defaults and one omitting them share a key), the
// seed, the replicate count, and for panels the Figure/Name labels (they are
// echoed in the payload, so two requests differing only in labels must not
// share cached bytes). Deliberately excluded: worker counts and progress
// callbacks, which never change a single output bit.

// runKeyCfg is the canonical encoding of one simulator configuration. The
// field names, order and omitempty set are the deployed key format — they are
// what experiments.Config happened to marshal to when keys hashed that struct
// wholesale — and are frozen here so the simulator's struct can change
// without orphaning every cached result. Topo is the frozen index of the six
// original models (experiments.OriginalModelIndex); every later model
// encodes as index 0 plus its name in Model. A new Config field that changes
// results must be added here, at the end and with omitempty.
type runKeyCfg struct {
	Topo                      int
	Model                     string `json:",omitempty"`
	N, MsgLen                 int
	Beta, Rate                float64
	Pattern                   int
	HotspotBias               float64
	Depth                     int
	Warmup, Measure, Drain    int64
	Seed                      uint64
	BurstMeanOn, BurstMeanOff float64 `json:",omitempty"`
	McastFrac                 float64 `json:",omitempty"`
	McastSize                 int     `json:",omitempty"`
}

// RunKey returns the cache key of a replicated single-configuration run.
func RunKey(cfg experiments.Config, replicates int) string {
	if replicates < 1 {
		replicates = 1
	}
	cfg = cfg.WithDefaults()
	key := runKeyCfg{
		Model: cfg.Model, N: cfg.N, MsgLen: cfg.MsgLen, Beta: cfg.Beta, Rate: cfg.Rate,
		Pattern: int(cfg.Pattern), HotspotBias: cfg.HotspotBias, Depth: cfg.Depth,
		Warmup: cfg.Warmup, Measure: cfg.Measure, Drain: cfg.Drain, Seed: cfg.Seed,
		BurstMeanOn: cfg.BurstMeanOn, BurstMeanOff: cfg.BurstMeanOff,
		McastFrac: cfg.McastFrac, McastSize: cfg.McastSize,
	}
	if i, ok := experiments.OriginalModelIndex(cfg.Model); ok {
		key.Topo, key.Model = i, ""
	}
	return hashKey(struct {
		Kind       string
		Cfg        runKeyCfg
		Replicates int
	}{"run", key, replicates})
}

// PanelKey returns the cache key of a panel sweep.
func PanelKey(spec experiments.PanelSpec, opts experiments.RunOpts) string {
	if opts.Replicates < 1 {
		opts.Replicates = 1
	}
	if len(spec.Rates) > 0 {
		// Explicit rates make the Points grid size irrelevant to the sweep;
		// keep it out of the key so the identical work shares one entry.
		opts.Points = 0
	}
	return hashKey(struct {
		Kind         string
		Figure, Name string
		N, MsgLen    int
		Beta         float64
		// The traffic-shaping, model-set and multicast fields carry
		// omitempty so the paper's fixed-pair uniform panels keep the exact
		// cache keys they had before the fields existed.
		Pattern                int      `json:",omitempty"`
		HotspotBias            float64  `json:",omitempty"`
		Models                 []string `json:",omitempty"`
		McastFrac              float64  `json:",omitempty"`
		McastSize              int      `json:",omitempty"`
		Rates                  []float64
		Warmup, Measure, Drain int64
		Depth                  int
		Seed                   uint64
		Points, Replicates     int
	}{
		Kind: "panel", Figure: spec.Figure, Name: spec.Name,
		N: spec.N, MsgLen: spec.MsgLen, Beta: spec.Beta,
		Pattern: int(spec.Pattern), HotspotBias: spec.HotspotBias,
		Models: spec.Models, McastFrac: spec.McastFrac, McastSize: spec.McastSize,
		Rates:  spec.Rates,
		Warmup: opts.Warmup, Measure: opts.Measure, Drain: opts.Drain,
		Depth: opts.Depth, Seed: opts.Seed,
		Points: opts.Points, Replicates: opts.Replicates,
	})
}

// hashKey marshals v deterministically (struct field order, no maps) and
// hashes the bytes.
func hashKey(v any) string {
	b, err := json.Marshal(v)
	if err != nil {
		// Key structs contain only value fields; this cannot happen.
		panic("service: canonical key marshal: " + err.Error())
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}
