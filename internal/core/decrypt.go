package core

import (
	"context"
	"fmt"

	"f2/internal/crypt"
	"f2/internal/obs"
	"f2/internal/pool"
	"f2/internal/relation"
)

// Decryptor inverts F² encryption. The data owner holds the key; the
// server never can.
type Decryptor struct {
	cfg    Config
	cipher *crypt.ProbCipher
}

// NewDecryptor validates cfg and builds a decryptor.
func NewDecryptor(cfg Config) (*Decryptor, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	c, err := crypt.NewProbCipher(cfg.Key, cfg.PRF)
	if err != nil {
		return nil, err
	}
	return &Decryptor{cfg: cfg, cipher: c}, nil
}

// DecryptTable decrypts every cell of an encrypted table. Artificial cells
// decrypt to marker values recognizable via IsArtificialValue; real cells
// decrypt to their original plaintext. This needs only the key, not the
// encryption-time provenance. The context is checked periodically so a
// large decryption can be cancelled.
//
// Cell decryption is pure, so the rows are sharded across
// Config.Parallelism workers and written straight to their final
// positions — the output table is identical at every parallelism.
func (d *Decryptor) DecryptTable(ctx context.Context, t *relation.Table) (*relation.Table, error) {
	ctx, sp := obs.Start(ctx, "decrypt.table")
	sp.SetAttr("rows", t.NumRows())
	defer sp.End()
	n := t.NumRows()
	m := t.NumAttrs()
	rows := make([][]string, n)
	decryptRange := func(ctx context.Context, lo, hi int) error {
		for i := lo; i < hi; i++ {
			if (i-lo)%1024 == 0 {
				if err := ctx.Err(); err != nil {
					return fmt.Errorf("core: decrypt: %w", err)
				}
			}
			row := make([]string, m)
			for a := 0; a < m; a++ {
				p, err := d.cipher.DecryptCell(t.Cell(i, a))
				if err != nil {
					return fmt.Errorf("core: decrypting cell (%d,%d): %w", i, a, err)
				}
				row[a] = p
			}
			rows[i] = row
		}
		return nil
	}
	workers := d.cfg.Workers()
	pl := pool.New(workers)
	defer pl.Close()
	ranges := chunkRanges(n, workers*4)
	if err := pl.ForEach(ctx, len(ranges), func(ctx context.Context, si int) error {
		return decryptRange(ctx, ranges[si][0], ranges[si][1])
	}); err != nil {
		return nil, err
	}
	out := relation.NewTable(t.Schema().Clone())
	for _, row := range rows {
		if err := out.AppendRow(row); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// Recover reconstructs the original table D exactly (same rows, same
// order) from an encryption Result: artificial rows are dropped and the
// parts of conflict-split tuples are stitched back together using the
// per-row provenance.
func (d *Decryptor) Recover(ctx context.Context, res *Result) (*relation.Table, error) {
	enc := res.Encrypted
	if len(res.Origins) != enc.NumRows() {
		return nil, fmt.Errorf("core: provenance covers %d rows, table has %d", len(res.Origins), enc.NumRows())
	}
	plain, err := d.DecryptTable(ctx, enc)
	if err != nil {
		return nil, err
	}
	m := enc.NumAttrs()

	// Gather original rows by source index.
	rows := make(map[int][]string)
	maxSrc := -1
	for i, o := range res.Origins {
		switch o.Kind {
		case RowOriginal:
			rows[o.SourceRow] = plain.Row(i)
			if o.SourceRow > maxSrc {
				maxSrc = o.SourceRow
			}
		case RowConflictPart:
			r, ok := rows[o.SourceRow]
			if !ok {
				r = make([]string, m)
				for a := range r {
					r[a] = markerPrefix // placeholder until a part carries it
				}
				rows[o.SourceRow] = r
			}
			for _, a := range o.Carried.Attrs() {
				r[a] = plain.Cell(i, a)
			}
			if o.SourceRow > maxSrc {
				maxSrc = o.SourceRow
			}
		}
	}
	out := relation.NewTable(enc.Schema().Clone())
	for src := 0; src <= maxSrc; src++ {
		r, ok := rows[src]
		if !ok {
			return nil, fmt.Errorf("core: no encrypted row carries source row %d", src)
		}
		for a, v := range r {
			if IsArtificialValue(v) || v == markerPrefix {
				return nil, fmt.Errorf("core: source row %d attribute %d not carried by any part", src, a)
			}
		}
		if err := out.AppendRow(r); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// StripArtificial returns the decrypted table with every row containing an
// artificial value removed. Unlike Recover this needs no provenance, but
// two caveats apply: conflict-split tuples are lost (each of their parts
// contains filler), and scale copies of a MAS that covers every column
// decrypt to exact duplicates of real tuples and are kept (without
// provenance they are indistinguishable). Use Recover when the provenance
// survived.
func (d *Decryptor) StripArtificial(ctx context.Context, t *relation.Table) (*relation.Table, error) {
	plain, err := d.DecryptTable(ctx, t)
	if err != nil {
		return nil, err
	}
	out := relation.NewTable(t.Schema().Clone())
	for i := 0; i < plain.NumRows(); i++ {
		keep := true
		for a := 0; a < plain.NumAttrs(); a++ {
			if IsArtificialValue(plain.Cell(i, a)) {
				keep = false
				break
			}
		}
		if keep {
			if err := out.AppendRow(plain.Row(i)); err != nil {
				return nil, err
			}
		}
	}
	return out, nil
}
