package main

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"time"

	"f2/internal/workload"
)

// createRequest is the body of POST /v1/datasets.
type createRequest struct {
	Name    string     `json:"name"`
	Columns []string   `json:"columns"`
	Rows    [][]string `json:"rows"`
	Alpha   float64    `json:"alpha"`
}

// alpha is the α-security threshold every workload encrypts at.
const alpha = 0.25

// Each outsource cycle asks for the FDs and decrypts more than once: one
// create takes as long as a dozen of these faster requests, and their
// medians need the samples.
const (
	fdsPerCycle      = 3
	decryptsPerCycle = 5
)

// outsourceInput is what one outsource cycle sends and expects back.
type outsourceInput struct {
	body      []byte
	columns   []string
	want      rowKeys
	wantFDs   []string
	rows      int
	userBytes int64
}

// runOutsource is a closed loop with one client: each cycle uploads a
// customer table (POST /v1/datasets: upload, full F² encrypt, snapshot),
// asks for its FDs on the ciphertext, decrypts it and deletes it.
func runOutsource(ctx context.Context, b *bench) (err error) {
	var (
		in  *instance
		dir string
		inp outsourceInput
	)
	err = b.setupRounds(func() (func() error, error) {
		tbl := workload.Customer(b.sz.OutsourceRows, b.seed)
		rows := tableRows(tbl)
		var err error
		inp = outsourceInput{
			columns:   tbl.Schema().Names(),
			want:      multiset(rows),
			rows:      len(rows),
			userBytes: cellBytes(rows),
		}
		if inp.body, err = json.Marshal(createRequest{Name: "customer", Columns: inp.columns, Rows: rows, Alpha: alpha}); err != nil {
			return nil, err
		}
		if inp.wantFDs, err = witnessedFDs(ctx, tbl); err != nil {
			return nil, err
		}
		if dir, err = b.freshDir("outsource"); err != nil {
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
		e, d, err := b.outsourceCycle(ctx, c, dir, &inp, cycles)
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

// outsourceCycle runs one create → fds → decrypt → delete cycle and
// returns the dataset's expansion and its data-directory bytes per
// plaintext byte (0, 0 when the create failed). Failed requests count
// against the run; only an error the benchmark itself cannot get past is
// returned.
func (b *bench) outsourceCycle(ctx context.Context, c *client, dir string, inp *outsourceInput, i int) (expansion, disk float64, err error) {
	log := b.traceLog(i)
	trace := fmt.Sprintf("outsource-%d", i)
	var created datasetAnswer
	d, ok := b.call(ctx, c, log, trace, "create", http.MethodPost, traced("/v1/datasets", log), inp.body,
		func(body []byte) error {
			if err := json.Unmarshal(body, &created); err != nil {
				return fmt.Errorf("create: decoding answer: %w", err)
			}
			if created.Dataset.Rows != inp.rows || created.Dataset.EncryptedRows < inp.rows {
				return fmt.Errorf("create: summary says %d rows, %d encrypted; sent %d",
					created.Dataset.Rows, created.Dataset.EncryptedRows, inp.rows)
			}
			return nil
		})
	if !ok {
		return 0, 0, nil
	}
	b.mainOp(log != nil, d)
	bytes, err := dirBytes(dir)
	if err != nil {
		return 0, 0, err
	}
	path := "/v1/datasets/" + created.Dataset.ID
	for k := 0; k < fdsPerCycle; k++ {
		b.call(ctx, c, log, trace, "fds", http.MethodGet, path+"/fds", nil,
			func(body []byte) error { return checkFDs(body, inp.wantFDs) })
	}
	for k := 0; k < decryptsPerCycle; k++ {
		b.call(ctx, c, log, trace, "decrypt", http.MethodPost, path+"/decrypt", nil,
			func(body []byte) error { return checkDecrypt(body, inp.columns, inp.want, 0) })
	}
	b.call(ctx, c, log, trace, "delete", http.MethodDelete, path, nil, nil)
	return float64(created.Dataset.EncryptedRows) / float64(created.Dataset.Rows),
		float64(bytes) / float64(inp.userBytes), nil
}
