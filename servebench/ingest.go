package main

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"time"

	"f2/internal/workload"
)

// ingestInput is what one ingest cycle sends and expects back.
type ingestInput struct {
	create  []byte // POST /v1/datasets body for the base rows
	columns []string
	batches [][]byte // POST rows bodies, in order
	// want is the base rows plus every batch, wantFDs their witnessed FDs.
	want      rowKeys
	wantFDs   []string
	baseRows  int
	rows      int
	userBytes int64
}

// decryptsPerIngestCycle gives decrypt_cpu_ms more samples.
const decryptsPerIngestCycle = 3

// runIngest is a closed loop with one client: each cycle uploads a
// synthetic base table, appends a fixed stream of small batches onto it
// with a synchronous flush after every IngestFlushEvery batches, then
// decrypts the grown table, asks for its FDs and deletes it. Every cycle
// sends the same requests in the same order and ends at the same table,
// so the work a cycle does does not depend on how fast the host runs it.
func runIngest(ctx context.Context, b *bench) (err error) {
	sz := b.sz
	var (
		in  *instance
		dir string
		inp ingestInput
	)
	err = b.setupRounds(func() (func() error, error) {
		base := workload.Synthetic(sz.IngestBaseRows, b.seed)
		// The appended rows come from the same generator at a shifted
		// seed: new values that start as singletons and later repeat.
		extra := tableRows(workload.Synthetic(sz.IngestBatches*sz.IngestBatchRows, b.seed+7))
		inp = ingestInput{columns: base.Schema().Names(), baseRows: base.NumRows()}
		var err error
		if inp.create, err = json.Marshal(createRequest{Name: "synthetic", Columns: inp.columns, Rows: tableRows(base), Alpha: alpha}); err != nil {
			return nil, err
		}
		for i := 0; i < sz.IngestBatches; i++ {
			body, err := json.Marshal(map[string][][]string{"rows": extra[i*sz.IngestBatchRows : (i+1)*sz.IngestBatchRows]})
			if err != nil {
				return nil, err
			}
			inp.batches = append(inp.batches, body)
		}
		all := base.Clone()
		if err := all.AppendRows(extra); err != nil {
			return nil, err
		}
		if inp.wantFDs, err = witnessedFDs(ctx, all); err != nil {
			return nil, err
		}
		allRows := tableRows(all)
		inp.want, inp.rows, inp.userBytes = multiset(allRows), len(allRows), cellBytes(allRows)
		if dir, err = b.freshDir("ingest"); err != nil {
			return nil, err
		}
		if in, err = startInstance(dir); err != nil {
			return nil, err
		}
		return in.close, nil
	})
	if err != nil {
		return err
	}
	defer func() {
		if cerr := in.close(); err == nil {
			err = cerr
		}
	}()
	c := newClient(in.base)
	defer c.close()

	p0, s0, err := b.scrapeLayers(ctx, c, in)
	if err != nil {
		return err
	}
	b.proc0 = readProc()
	var expansion, disk []float64
	deadline := time.Now().Add(b.window)
	cycles := 0
	for ; cycles == 0 || time.Now().Before(deadline); cycles++ {
		settle()
		e, d, err := b.ingestCycle(ctx, c, dir, &inp, cycles)
		b.endCycle()
		if err != nil {
			return err
		}
		if e > 0 {
			expansion = append(expansion, e)
			disk = append(disk, d)
		}
	}
	b.proc1 = readProc()
	p1, s1, err := b.scrapeLayers(ctx, c, in)
	if err != nil {
		return err
	}
	b.layers.add(p0, p1, s0, s1)
	b.rows = float64(cycles * inp.rows)
	b.userBytes = float64(int64(cycles) * inp.userBytes)
	b.values["expansion"] = quantile(expansion, 0.5)
	b.values["disk_bytes_per_user_byte"] = quantile(disk, 0.5)
	return nil
}

// ingestCycle runs one create → (appends, flush)… → decrypt → fds →
// delete cycle and returns the grown dataset's expansion and its
// data-directory bytes per plaintext byte (0, 0 when a request the
// figures rest on failed). Failed requests count against the run; only
// an error the benchmark itself cannot get past is returned.
func (b *bench) ingestCycle(ctx context.Context, c *client, dir string, inp *ingestInput, i int) (expansion, disk float64, err error) {
	trace := fmt.Sprintf("ingest-%d", i)
	var created datasetAnswer
	if _, ok := b.call(ctx, c, nil, trace, "create", http.MethodPost, "/v1/datasets", inp.create,
		func(body []byte) error {
			if err := json.Unmarshal(body, &created); err != nil {
				return fmt.Errorf("create: decoding answer: %w", err)
			}
			if created.Dataset.Rows != inp.baseRows {
				return fmt.Errorf("create: summary says %d rows; sent %d", created.Dataset.Rows, inp.baseRows)
			}
			return nil
		}); !ok {
		return 0, 0, nil
	}
	path := "/v1/datasets/" + created.Dataset.ID
	var flushed datasetAnswer
	okAll := true
	start, cpu0 := time.Now(), processCPU()
	for k, body := range inp.batches {
		// Appends alternate between traced and plain, for the tracing
		// overhead; so do flushes.
		log := b.traceLog(k)
		d, ok := b.call(ctx, c, log, trace, "append", http.MethodPost, traced(path+"/rows", log), body, nil)
		if ok {
			b.mainOp(log != nil, d)
		}
		okAll = okAll && ok
		if (k+1)%b.sz.IngestFlushEvery == 0 || k == len(inp.batches)-1 {
			log := b.traceLog(k / b.sz.IngestFlushEvery)
			_, ok := b.call(ctx, c, log, trace, "flush", http.MethodPost, traced(path+"/flush?wait=1", log), nil,
				func(body []byte) error {
					if err := checkSyncFlush(body); err != nil {
						return err
					}
					return json.Unmarshal(body, &flushed)
				})
			okAll = okAll && ok
		}
	}
	if okAll {
		// The cost of ingesting one batch: its append and its share of
		// the flushes that encrypt and snapshot it.
		n := time.Duration(len(inp.batches))
		b.sample("ingest", time.Since(start)/n, (processCPU()-cpu0)/n)
		expansion = ratio(float64(flushed.Dataset.EncryptedRows), float64(flushed.Dataset.Rows))
		bytes, err := dirBytes(dir)
		if err != nil {
			return 0, 0, err
		}
		disk = ratio(float64(bytes), float64(inp.userBytes))
		// The checks below expect every batch in the table.
		for k := 0; k < decryptsPerIngestCycle; k++ {
			b.call(ctx, c, nil, trace, "decrypt", http.MethodPost, path+"/decrypt", nil,
				func(body []byte) error { return checkDecrypt(body, inp.columns, inp.want, 0) })
		}
		b.call(ctx, c, nil, trace, "fds", http.MethodGet, path+"/fds", nil,
			func(body []byte) error { return checkFDs(body, inp.wantFDs) })
	}
	b.call(ctx, c, nil, trace, "delete", http.MethodDelete, path, nil, nil)
	return expansion, disk, nil
}
