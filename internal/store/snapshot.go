package store

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"syscall"

	"f2/internal/core"
	"f2/internal/crypt"
)

// keyEnvelope prefixes the dataset key before master-key encryption. The
// stream cipher has no MAC, so the prefix doubles as an integrity check:
// decrypting with the wrong master key yields garbage that fails the
// prefix test instead of silently installing a wrong key.
const keyEnvelope = "f2-dataset-key:"

// configFile mirrors core.Config minus the key.
type configFile struct {
	Alpha                  float64 `json:"alpha"`
	SplitFactor            int     `json:"splitFactor"`
	PRF                    int     `json:"prf"`
	MAS                    int     `json:"mas"`
	MinInstanceFreq        int     `json:"minInstanceFreq"`
	NaiveSplitPoint        bool    `json:"naiveSplitPoint,omitempty"`
	SkipFPElimination      bool    `json:"skipFPElimination,omitempty"`
	SkipConflictResolution bool    `json:"skipConflictResolution,omitempty"`
	// Parallelism is a pure throughput knob (the ciphertext is identical
	// at every setting), but it round-trips so a restored dataset keeps
	// the width it was created with. Absent → 0 → GOMAXPROCS.
	Parallelism int `json:"parallelism,omitempty"`
}

func configToFile(cfg core.Config) configFile {
	return configFile{
		Alpha:                  cfg.Alpha,
		SplitFactor:            cfg.SplitFactor,
		PRF:                    int(cfg.PRF),
		MAS:                    int(cfg.MAS),
		MinInstanceFreq:        cfg.MinInstanceFreq,
		NaiveSplitPoint:        cfg.NaiveSplitPoint,
		SkipFPElimination:      cfg.SkipFPElimination,
		SkipConflictResolution: cfg.SkipConflictResolution,
		Parallelism:            cfg.Parallelism,
	}
}

func (c configFile) config(key crypt.Key) core.Config {
	return core.Config{
		Alpha:                  c.Alpha,
		SplitFactor:            c.SplitFactor,
		Key:                    key,
		PRF:                    crypt.PRF(c.PRF),
		MAS:                    core.MASAlgorithm(c.MAS),
		MinInstanceFreq:        c.MinInstanceFreq,
		NaiveSplitPoint:        c.NaiveSplitPoint,
		SkipFPElimination:      c.SkipFPElimination,
		SkipConflictResolution: c.SkipConflictResolution,
		Parallelism:            c.Parallelism,
	}
}

// sealKey encrypts a dataset key under the master cipher for storage.
func sealKey(master *crypt.ProbCipher, key crypt.Key) (string, error) {
	text, err := key.MarshalText()
	if err != nil {
		return "", err
	}
	sealed, err := master.EncryptCell(keyEnvelope + string(text))
	if err != nil {
		return "", fmt.Errorf("store: sealing dataset key: %w", err)
	}
	return sealed, nil
}

// openKey inverts sealKey, verifying the envelope prefix so a wrong
// master key surfaces as an error rather than a garbage key.
func openKey(master *crypt.ProbCipher, sealed string) (crypt.Key, error) {
	plain, err := master.DecryptCell(sealed)
	if err != nil {
		return crypt.Key{}, fmt.Errorf("store: unsealing dataset key: %w", err)
	}
	text, ok := strings.CutPrefix(plain, keyEnvelope)
	if !ok {
		return crypt.Key{}, fmt.Errorf("store: dataset key envelope mismatch (wrong master key?)")
	}
	var key crypt.Key
	if err := key.UnmarshalText([]byte(text)); err != nil {
		return crypt.Key{}, fmt.Errorf("store: unsealing dataset key: %w", err)
	}
	return key, nil
}

// writeFileAtomic writes data to path via a temp file in the same
// directory, fsyncs it, and renames it into place, so readers — including
// recovery after a crash mid-write — see either the old file or the new
// one, never a torn mix.
func writeFileAtomic(path string, data []byte, perm os.FileMode) error {
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, filepath.Base(path)+".tmp-*")
	if err != nil {
		return err
	}
	tmpPath := tmp.Name()
	cleanup := func() {
		// Best-effort teardown of a write that already failed: the close
		// error cannot carry anything the caller isn't already returning.
		_ = tmp.Close()
		os.Remove(tmpPath)
	}
	if _, err := tmp.Write(data); err != nil {
		cleanup()
		return err
	}
	if err := tmp.Chmod(perm); err != nil {
		cleanup()
		return err
	}
	if err := tmp.Sync(); err != nil {
		cleanup()
		return err
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmpPath)
		return err
	}
	if err := os.Rename(tmpPath, path); err != nil {
		os.Remove(tmpPath)
		return err
	}
	return syncDir(dir)
}

// syncDir fsyncs a directory so a just-renamed file's directory entry is
// durable. Only "this filesystem doesn't support directory fsync" errnos
// are tolerated; a real I/O failure (EIO, ENOSPC, ...) here means the
// rename may not be durable and must surface to the caller.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer d.Close()
	if err := d.Sync(); err != nil && !unsupportedSync(err) {
		return fmt.Errorf("store: syncing directory %s: %w", dir, err)
	}
	return nil
}

// unsupportedSync reports whether err is the errno class meaning the
// filesystem rejects directory fsync outright (not that it failed).
func unsupportedSync(err error) bool {
	return errors.Is(err, syscall.EINVAL) ||
		errors.Is(err, syscall.ENOTSUP) ||
		errors.Is(err, syscall.ENOTTY) ||
		errors.Is(err, syscall.EOPNOTSUPP)
}
