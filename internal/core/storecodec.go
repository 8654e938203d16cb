package core

// Binary codec for the one value the on-disk artifact store (L3)
// persists: the solved selection.  The encoding uses package artifact's
// Encoder/Decoder, is versioned and kind-tagged, and is deterministic,
// so a store-warmed run reproduces a cold run byte-identically.
// Decoding arbitrary bytes yields a typed error, never a panic: a
// record that passed the store's checksum but fails here is
// semantically corrupt (e.g. written by a different version) and the
// caller quarantines it.

import (
	"fmt"
	"time"

	"repro/internal/artifact"
	"repro/internal/layoutgraph"
)

// Codec version and kind tag, the first two fields of every payload.
// Bumping the version invalidates (quarantines) old records rather than
// misreading them.
const (
	// v2: selection records carry the solver route, the presolve counter
	// and one int slot that held the sparse-LP counter — written 0 and
	// skipped on read now that the dense tableau is the only LP engine,
	// kept so records written by earlier binaries still decode.
	storeCodecVersion = 2
	storeKindSel      = "selection"
)

// storeCheckHeader validates the version and kind fields.
func storeCheckHeader(d *artifact.Decoder) error {
	if v := d.Int(); d.Err() == nil && v != storeCodecVersion {
		return fmt.Errorf("core: store record version %d, want %d", v, storeCodecVersion)
	}
	if k := d.Str(); d.Err() == nil && k != storeKindSel {
		return fmt.Errorf("core: store record kind %q, want %q", k, storeKindSel)
	}
	return d.Err()
}

// encodeSelection serializes a solved selection (non-degraded only —
// the caller gates, matching the shared cache's rule).
func encodeSelection(sel layoutgraph.Selection) []byte {
	var e artifact.Encoder
	e.Int(storeCodecVersion).Str(storeKindSel)
	e.Int(len(sel.Choice))
	for _, c := range sel.Choice {
		e.Int(c)
	}
	e.Float(sel.Cost)
	e.Int(sel.Vars).Int(sel.Constraints).Int(sel.BBNodes)
	e.Int(sel.LPPivots).Int(sel.LPWarm).Int(sel.LPCold).Int(sel.RCFixed)
	e.Int(sel.Presolved).Int(0).Str(sel.Solver)
	e.Int(int(sel.Duration))
	e.Bool(sel.Degraded).Str(sel.DegradeReason).Float(sel.Gap)
	return e.Out()
}

func decodeSelection(b []byte) (layoutgraph.Selection, error) {
	d := artifact.NewDecoder(b)
	var sel layoutgraph.Selection
	if err := storeCheckHeader(d); err != nil {
		return sel, err
	}
	if n := d.Len(); n > 0 {
		sel.Choice = make([]int, n)
		for i := range sel.Choice {
			sel.Choice[i] = d.Int()
		}
	}
	sel.Cost = d.Float()
	sel.Vars = d.Int()
	sel.Constraints = d.Int()
	sel.BBNodes = d.Int()
	sel.LPPivots = d.Int()
	sel.LPWarm = d.Int()
	sel.LPCold = d.Int()
	sel.RCFixed = d.Int()
	sel.Presolved = d.Int()
	d.Int() // former sparse-LP counter
	sel.Solver = d.Str()
	sel.Duration = time.Duration(d.Int())
	sel.Degraded = d.Bool()
	sel.DegradeReason = d.Str()
	sel.Gap = d.Float()
	if err := d.Close(); err != nil {
		return layoutgraph.Selection{}, err
	}
	return sel, nil
}
