package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"sort"
	"strings"

	"f2/internal/fd"
	"f2/internal/relation"
)

// Correctness checks on the service's answers. Each returns nil when the
// answer is right and an error describing the first difference otherwise.

// rowKeys is a multiset of rows.
type rowKeys map[string]int

func multiset(rows [][]string) rowKeys {
	m := make(rowKeys, len(rows))
	m.add(rows)
	return m
}

func (m rowKeys) add(rows [][]string) {
	for _, r := range rows {
		m[relation.KeyOfValues(r)]++
	}
}

func tableRows(t *relation.Table) [][]string {
	rows := make([][]string, t.NumRows())
	for i := range rows {
		rows[i] = t.Row(i)
	}
	return rows
}

// cellBytes is the plaintext size of rows: the sum of their cell lengths.
func cellBytes(rows [][]string) int64 {
	var n int64
	for _, r := range rows {
		for _, c := range r {
			n += int64(len(c))
		}
	}
	return n
}

// decryptAnswer is the body of POST /v1/datasets/{id}/decrypt.
type decryptAnswer struct {
	Columns     []string   `json:"columns"`
	Rows        [][]string `json:"rows"`
	PendingRows int        `json:"pendingRows"`
}

// checkDecrypt verifies a decrypt answer against the plaintext that was
// sent: same columns in order, the same rows as a multiset (so a lost or
// duplicated row fails), and the expected number of rows still pending.
func checkDecrypt(body []byte, columns []string, want rowKeys, wantPending int) error {
	var got decryptAnswer
	if err := json.Unmarshal(body, &got); err != nil {
		return fmt.Errorf("decrypt: decoding answer: %w", err)
	}
	if strings.Join(got.Columns, "\x00") != strings.Join(columns, "\x00") {
		return fmt.Errorf("decrypt: columns %v, want %v", got.Columns, columns)
	}
	if got.PendingRows != wantPending {
		return fmt.Errorf("decrypt: %d rows pending, want %d", got.PendingRows, wantPending)
	}
	have := multiset(got.Rows)
	for k, n := range want {
		if have[k] != n {
			return fmt.Errorf("decrypt: row %q recovered %d times, sent %d times", k, have[k], n)
		}
	}
	if len(got.Rows) != total(want) {
		return fmt.Errorf("decrypt: %d rows recovered, %d sent", len(got.Rows), total(want))
	}
	return nil
}

func total(m rowKeys) int {
	n := 0
	for _, c := range m {
		n += c
	}
	return n
}

// witnessedFDs is the witnessed FD set of a plaintext table in the
// canonical string form checkFDs compares against.
func witnessedFDs(ctx context.Context, t *relation.Table) ([]string, error) {
	set, err := fd.DiscoverWitnessedCtx(ctx, t)
	if err != nil {
		return nil, err
	}
	sch := t.Schema()
	var out []string
	for _, f := range set.Slice() {
		lhs := make([]string, 0, f.LHS.Size())
		for _, a := range f.LHS.Attrs() {
			lhs = append(lhs, sch.Name(a))
		}
		out = append(out, fdString(lhs, sch.Name(f.RHS)))
	}
	sort.Strings(out)
	return out, nil
}

func fdString(lhs []string, rhs string) string {
	l := append([]string(nil), lhs...)
	sort.Strings(l)
	return strings.Join(l, ",") + "->" + rhs
}

// checkFDs verifies a GET /fds answer — FDs discovered on the ciphertext —
// against the witnessed FDs of the plaintext (Theorem 3.7: they agree).
func checkFDs(body []byte, want []string) error {
	var got struct {
		Count int `json:"count"`
		FDs   []struct {
			LHS []string `json:"lhs"`
			RHS string   `json:"rhs"`
		} `json:"fds"`
	}
	if err := json.Unmarshal(body, &got); err != nil {
		return fmt.Errorf("fds: decoding answer: %w", err)
	}
	have := make([]string, len(got.FDs))
	for i, f := range got.FDs {
		have[i] = fdString(f.LHS, f.RHS)
	}
	sort.Strings(have)
	if strings.Join(have, ";") != strings.Join(want, ";") {
		return fmt.Errorf("fds: %d FDs on the ciphertext, %d witnessed on the plaintext (first difference: %s)",
			len(have), len(want), firstDiff(have, want))
	}
	return nil
}

func firstDiff(a, b []string) string {
	for i := 0; i < len(a) || i < len(b); i++ {
		switch {
		case i >= len(a):
			return "missing " + b[i]
		case i >= len(b):
			return "extra " + a[i]
		case a[i] != b[i]:
			return a[i] + " vs " + b[i]
		}
	}
	return "none"
}

// datasetAnswer is the part of a create or synchronous flush answer the
// benchmark reads: the dataset summary.
type datasetAnswer struct {
	Dataset struct {
		ID            string `json:"id"`
		Rows          int    `json:"rows"`
		EncryptedRows int    `json:"encryptedRows"`
	} `json:"dataset"`
}

// checkSyncFlush verifies that a flush?wait=1 answer reports a finished
// flush, not a background job still running: only then does its latency
// cover the encryption and the snapshot.
func checkSyncFlush(body []byte) error {
	var got struct {
		Status string `json:"status"`
	}
	if err := json.Unmarshal(body, &got); err != nil {
		return fmt.Errorf("flush: decoding answer: %w", err)
	}
	if got.Status == "running" {
		return errors.New("flush: answered with a running background job, not a finished flush")
	}
	return nil
}
