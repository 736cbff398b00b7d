package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"time"

	"f2/internal/workload"
)

// rebootDataset is one stored dataset of the reboot workload and the
// plaintext its snapshot holds.
type rebootDataset struct {
	id      string
	columns []string
	want    rowKeys // the snapshotted rows
	pending int     // rows in the WAL tail
}

// runReboot is a closed loop of cold boots over one fixed data
// directory: set-up writes several synthetic datasets, each with a WAL tail
// of unflushed batches; every iteration opens the store, boots the
// server, waits for /readyz, decrypts every dataset (the first decrypt
// hydrates it: index, chunks, WAL replay) and once more warm, then shuts
// down. The directory must be byte-identical after every boot.
func runReboot(ctx context.Context, b *bench) error {
	var (
		dir    string
		sets   []rebootDataset
		digest string
	)
	err := b.setupRounds(func() (func() error, error) {
		var err error
		if dir, err = b.freshDir("reboot"); err != nil {
			return nil, err
		}
		var user int64
		var enc, rows int
		sets, user, enc, rows, err = b.layDownReboot(ctx, dir)
		if err != nil {
			return nil, err
		}
		// One boot before the digest: a first boot may lay down files
		// (such as the incident directory) that later boots keep.
		in, err := startInstance(dir)
		if err != nil {
			return nil, err
		}
		if err := in.close(); err != nil {
			return nil, err
		}
		var size int64
		if digest, size, err = dirDigest(dir); err != nil {
			return nil, err
		}
		b.values["expansion"] = ratio(float64(enc), float64(rows))
		b.values["disk_bytes_per_user_byte"] = ratio(float64(size), float64(user))
		return func() error { return nil }, nil
	})
	if err != nil {
		return err
	}

	b.proc0 = readProc()
	deadline := time.Now().Add(b.window)
	boots := 0
	for ; boots == 0 || time.Now().Before(deadline); boots++ {
		settle()
		if err := b.boot(ctx, dir, sets, boots); err != nil {
			return err
		}
		b.endCycle()
		got, _, err := dirDigest(dir)
		if err != nil {
			return err
		}
		if got != digest {
			b.invalid = append(b.invalid, fmt.Sprintf("boot %d changed the data directory: later boots would measure a different input", boots))
			break
		}
	}
	b.proc1 = readProc()
	for _, s := range sets {
		b.rows += float64(boots * (total(s.want) + s.pending))
	}
	return nil
}

// layDownReboot creates the reboot workload's datasets through the API
// of a server on dir, appends their WAL tails and shuts the server down.
// It returns the datasets, the plaintext bytes sent, and the encrypted
// and plaintext row counts of the snapshots.
func (b *bench) layDownReboot(ctx context.Context, dir string) (sets []rebootDataset, user int64, enc, rows int, err error) {
	sz := b.sz
	in, err := startInstance(dir)
	if err != nil {
		return nil, 0, 0, 0, err
	}
	defer func() {
		if cerr := in.close(); err == nil {
			err = cerr
		}
	}()
	c := newClient(in.base)
	defer c.close()
	for d := 0; d < sz.RebootDatasets; d++ {
		seed := b.seed*100 + int64(d)
		tbl := workload.Synthetic(sz.RebootRows, seed)
		base := tableRows(tbl)
		body, err := json.Marshal(createRequest{Name: fmt.Sprintf("synthetic-%d", d), Columns: tbl.Schema().Names(), Rows: base, Alpha: alpha})
		if err != nil {
			return nil, 0, 0, 0, err
		}
		data, _, err := c.do(ctx, http.MethodPost, "/v1/datasets", body)
		if err != nil {
			return nil, 0, 0, 0, err
		}
		var created datasetAnswer
		if err := json.Unmarshal(data, &created); err != nil {
			return nil, 0, 0, 0, err
		}
		// The tail stays below the auto-flush threshold, so it remains in
		// the WAL, unflushed, for every boot to replay.
		tail := tableRows(workload.Synthetic(sz.RebootTailBatches*sz.RebootTailRows, seed+50))
		for t := 0; t < sz.RebootTailBatches; t++ {
			batch := tail[t*sz.RebootTailRows : (t+1)*sz.RebootTailRows]
			body, err := json.Marshal(map[string][][]string{"rows": batch})
			if err != nil {
				return nil, 0, 0, 0, err
			}
			data, _, err := c.do(ctx, http.MethodPost, "/v1/datasets/"+created.Dataset.ID+"/rows", body)
			if err != nil {
				return nil, 0, 0, 0, err
			}
			var ans struct {
				FlushScheduled bool `json:"flushScheduled"`
			}
			if err := json.Unmarshal(data, &ans); err != nil {
				return nil, 0, 0, 0, err
			}
			if ans.FlushScheduled {
				return nil, 0, 0, 0, errors.New("reboot: a tail append triggered a flush; the WAL tail would not survive")
			}
		}
		sets = append(sets, rebootDataset{
			id: created.Dataset.ID, columns: tbl.Schema().Names(),
			want: multiset(base), pending: len(tail),
		})
		user += cellBytes(base) + cellBytes(tail)
		enc += created.Dataset.EncryptedRows
		rows += created.Dataset.Rows
	}
	return sets, user, enc, rows, nil
}

// boot runs one reboot iteration: open, ready, first and warm decrypts of
// every dataset, shutdown.
func (b *bench) boot(ctx context.Context, dir string, sets []rebootDataset, i int) (err error) {
	log := b.traceLog(i)
	trace := fmt.Sprintf("reboot-%d", i)
	start, cpu0 := time.Now(), processCPU()
	in, err := startInstance(dir)
	if !b.op(err) {
		return nil
	}
	log.add(trace, "boot", start, time.Since(start), nil)
	defer func() {
		if cerr := in.close(); err == nil {
			err = cerr
		}
	}()
	c := newClient(in.base)
	defer c.close()
	_, _, err = c.do(ctx, http.MethodGet, "/readyz", nil)
	ready, cpu := time.Since(start), processCPU()-cpu0
	if !b.op(err) {
		return nil
	}
	b.sample("ready", ready, cpu)
	log.add(trace, "ready", start, ready, nil)
	for _, name := range []string{"first_decrypt", "decrypt"} {
		for _, s := range sets {
			d, ok := b.call(ctx, c, log, trace, name, http.MethodPost, "/v1/datasets/"+s.id+"/decrypt", nil,
				func(body []byte) error { return checkDecrypt(body, s.columns, s.want, s.pending) })
			if ok && name == "first_decrypt" {
				// The tracing overhead compares first decrypts: a boot
				// has several, and far more samples than readiness.
				b.mainOp(log != nil, d)
			}
		}
	}
	p, st, err := b.scrapeLayers(ctx, c, in)
	if err != nil {
		return err
	}
	// A fresh server and store start every counter at zero.
	b.layers.add(nil, p, storeStats{}, st)
	return nil
}
