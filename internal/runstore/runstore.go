// Package runstore is the append-only run registry behind cross-run
// drift detection: each recorded run is one JSONL line holding a run
// ID, the git revision, a digest of the run configuration, a
// caller-supplied timestamp, and the full perf report (including the
// fidelity scorecard when present). cmd/bgpvr and cmd/experiments
// append with -run-record, CI uploads the file as the BENCH trajectory
// artifact, cmd/perfhistory renders per-metric trends over it, and the
// debug endpoint streams it at /runs. A pairwise perfdiff can only
// compare two snapshots; the store is what makes slow drift across
// many PRs visible.
package runstore

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"

	"bgpvr/internal/telemetry"
)

// Record is one stored run.
type Record struct {
	// ID identifies the run: a short hash of the timestamp, revision,
	// and config digest.
	ID string `json:"id"`
	// Time is the caller-supplied RFC3339 timestamp. The store never
	// reads a clock itself: deterministic tests and replayed CI runs
	// decide what "when" means.
	Time string `json:"time"`
	// GitRev is the source revision the run was built from.
	GitRev string `json:"git_rev,omitempty"`
	// ConfigDigest fingerprints the run configuration so trend tools
	// only compare like with like.
	ConfigDigest string `json:"config_digest,omitempty"`
	// Report is the full schema-versioned perf report.
	Report *telemetry.Report `json:"report"`
}

// ConfigDigest fingerprints a run configuration: a short sha256 over
// the sorted key=value pairs.
func ConfigDigest(cfg map[string]string) string {
	keys := make([]string, 0, len(cfg))
	for k := range cfg {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	h := sha256.New()
	for _, k := range keys {
		fmt.Fprintf(h, "%s=%s\n", k, cfg[k])
	}
	return hex.EncodeToString(h.Sum(nil))[:12]
}

// NewRecord assembles a record for a finished run. timestamp is
// caller-supplied (RFC3339); the ID is derived from it together with
// the revision and config digest.
func NewRecord(rep *telemetry.Report, gitRev, timestamp string) Record {
	digest := ""
	if rep != nil {
		digest = ConfigDigest(rep.Config)
	}
	h := sha256.Sum256([]byte(timestamp + "\x00" + gitRev + "\x00" + digest))
	return Record{
		ID:           hex.EncodeToString(h[:])[:12],
		Time:         timestamp,
		GitRev:       gitRev,
		ConfigDigest: digest,
		Report:       rep,
	}
}

// Append writes rec as one JSONL line at the end of path, creating the
// file and missing parent directories. The write is a single O_APPEND
// syscall, so concurrent appenders interleave whole lines.
func Append(path string, rec Record) error {
	if dir := filepath.Dir(path); dir != "." {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return err
		}
	}
	line, err := json.Marshal(rec)
	if err != nil {
		return fmt.Errorf("runstore: encoding record: %w", err)
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(line, '\n')); err != nil {
		f.Close()
		return fmt.Errorf("runstore: appending to %s: %w", path, err)
	}
	return f.Close()
}

// Read loads every record of the store, oldest first. A corrupt or
// truncated *trailing* record — the signature of an interrupted append
// — is dropped silently: losing the last run must not brick the whole
// history. A corrupt line in the middle of the file is real damage and
// returns an error naming the line.
func Read(path string) ([]Record, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var recs []Record
	badLine := 0 // 1-based line number of the first undecodable line
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 1<<20), 64<<20)
	line := 0
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		if text == "" {
			continue
		}
		var rec Record
		if err := json.Unmarshal([]byte(text), &rec); err != nil || rec.Report == nil {
			if badLine == 0 {
				badLine = line
			}
			continue
		}
		if badLine != 0 {
			// A decodable record *after* a bad line means mid-file
			// corruption, not a truncated tail.
			return nil, fmt.Errorf("runstore: %s: corrupt record at line %d", path, badLine)
		}
		recs = append(recs, rec)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("runstore: reading %s: %w", path, err)
	}
	return recs, nil
}

// GitRev resolves the source revision for a record: $GITHUB_SHA when
// CI sets it, otherwise git rev-parse, otherwise "unknown".
func GitRev() string {
	if sha := os.Getenv("GITHUB_SHA"); sha != "" {
		if len(sha) > 12 {
			sha = sha[:12]
		}
		return sha
	}
	out, err := exec.Command("git", "rev-parse", "--short=12", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}
