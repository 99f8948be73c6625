package core

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"

	"repro/internal/engine"
	"repro/internal/plan"
)

// Rehydrator is the optional engine capability needed to import a
// serialized plan cache: rebuilding a cached plan (with its recost
// representation) from a bare plan tree. engine.TemplateEngine implements
// it.
type Rehydrator interface {
	Rehydrate(p *plan.Plan) (*engine.CachedPlan, error)
}

// cacheJSON is the serialized plan-cache state: the plan list plus the
// instance 5-tuples (referencing plans by fingerprint). Configuration is
// not serialized — the importing SCR supplies its own.
type cacheJSON struct {
	Plans     []json.RawMessage `json:"plans"`
	Instances []instanceJSON    `json:"instances"`
}

type instanceJSON struct {
	V           []float64 `json:"v"`
	PlanFP      string    `json:"planFP"`
	C           float64   `json:"c"`
	S           float64   `json:"s"`
	U           int64     `json:"u"`
	Quarantined bool      `json:"quarantined,omitempty"`
}

// Export serializes the current plan cache (plan list + instance list) so
// it can be persisted across process restarts. The guarantee-relevant
// state — selectivity vectors, optimal costs, sub-optimality factors and
// quarantine flags — round-trips exactly.
func (s *SCR) Export() ([]byte, error) {
	// The published snapshot is immutable and internally consistent (plans
	// and instances from the same publication), so export needs no lock.
	snap := s.snapshot()
	out := cacheJSON{}
	for _, pe := range snap.plans {
		raw, err := json.Marshal(pe.cp.Plan)
		if err != nil {
			return nil, fmt.Errorf("core: exporting plan %s: %w", pe.fp, err)
		}
		out.Plans = append(out.Plans, raw)
	}
	for _, e := range snap.instances {
		a := e.anc.Load()
		out.Instances = append(out.Instances, instanceJSON{
			V: e.v, PlanFP: e.pp.fp, C: a.c, S: a.s,
			U: e.u.Load(), Quarantined: e.quarantined.Load(),
		})
	}
	return json.Marshal(out)
}

// Import restores a plan cache exported by Export into an empty SCR whose
// engine supports rehydration. Importing into a non-empty cache is
// rejected: merged caches could double-count usage and violate budget
// accounting. The whole install — plan set and instance list — lands
// under one publication, so readers see either the empty cache or the
// fully imported one.
func (s *SCR) Import(data []byte) error {
	rh, ok := s.eng.(Rehydrator)
	if !ok {
		return fmt.Errorf("core: engine %T cannot rehydrate plans", s.eng)
	}
	d := &s.dom
	d.lock()
	defer d.unlock()
	if len(d.plans) != 0 || len(d.instances) != 0 {
		return fmt.Errorf("core: import into non-empty plan cache")
	}
	var in cacheJSON
	if err := json.Unmarshal(data, &in); err != nil {
		return fmt.Errorf("core: import: %w", err)
	}
	byFP := make(map[string]*planEntry, len(in.Plans))
	for i, raw := range in.Plans {
		p, err := plan.UnmarshalPlan(raw)
		if err != nil {
			return fmt.Errorf("core: import plan %d: %w", i, err)
		}
		cp, err := rh.Rehydrate(p)
		if err != nil {
			return fmt.Errorf("core: rehydrating plan %d: %w", i, err)
		}
		pe := &planEntry{cp: cp, fp: cp.Fingerprint()}
		byFP[pe.fp] = pe
	}
	if s.cfg.planBudget > 0 && len(byFP) > s.cfg.planBudget {
		return fmt.Errorf("%w: import has %d plans, budget is %d", ErrBudgetExhausted, len(byFP), s.cfg.planBudget)
	}
	var insts []*instanceEntry
	// Imported anchors are adopted into the engine's current cost epoch:
	// importing asserts the snapshot was taken against statistics
	// equivalent to the present store (the pre-epoch semantics). A caller
	// restoring against drifted statistics should Revalidate afterwards.
	epoch := s.costEpoch()
	for i, ij := range in.Instances {
		pe, ok := byFP[ij.PlanFP]
		if !ok {
			return fmt.Errorf("core: import instance %d references unknown plan %q", i, ij.PlanFP)
		}
		if err := checkSVector(ij.V, s.eng.Dimensions()); err != nil {
			return fmt.Errorf("core: import instance %d: %w", i, err)
		}
		if !validAnchor(ij.C, ij.S) {
			return fmt.Errorf("core: import instance %d has invalid C=%v S=%v", i, ij.C, ij.S)
		}
		e := newInstance(ij.V, pe, ij.C, ij.S, ij.U, epoch)
		e.quarantined.Store(ij.Quarantined)
		insts = append(insts, e)
	}
	d.installImportLocked(byFP, insts)
	return nil
}

// Snapshot file framing. A node killed mid-persist must always be able to
// rejoin the cluster from its last good snapshot, so snapshot files are
// written via temp file + fsync + atomic rename and framed so partial or
// torn contents are detected on read instead of half-imported:
//
//	offset 0  magic "PQOSNAP1" (8 bytes)
//	offset 8  big-endian uint32 IEEE CRC of the payload
//	offset 12 big-endian uint64 payload length
//	offset 20 payload (Export JSON)
var snapshotMagic = []byte("PQOSNAP1")

const snapshotHeaderLen = len("PQOSNAP1") + 4 + 8

// ErrSnapshotCorrupt reports that a snapshot file exists but its framing
// is damaged — truncated payload, checksum mismatch, or an impossible
// length. Callers must treat the snapshot as absent rather than import a
// torn write.
var ErrSnapshotCorrupt = errors.New("pqo: snapshot file corrupt or truncated")

// WriteSnapshotFile persists an Export-produced snapshot crash-safely: the
// framed payload is written to a temp file in the same directory, fsynced,
// atomically renamed over path, and the directory entry is fsynced too. A
// crash at any point leaves either the previous snapshot or the new one at
// path, never a mix; abandoned temp files are ignorable garbage.
func WriteSnapshotFile(path string, data []byte) (err error) {
	var buf bytes.Buffer
	buf.Grow(snapshotHeaderLen + len(data))
	buf.Write(snapshotMagic)
	var hdr [12]byte
	binary.BigEndian.PutUint32(hdr[:4], crc32.ChecksumIEEE(data))
	binary.BigEndian.PutUint64(hdr[4:], uint64(len(data)))
	buf.Write(hdr[:])
	buf.Write(data)

	dir := filepath.Dir(path)
	f, err := os.CreateTemp(dir, filepath.Base(path)+".tmp*")
	if err != nil {
		return fmt.Errorf("core: snapshot temp file: %w", err)
	}
	tmp := f.Name()
	defer func() {
		if err != nil {
			f.Close()
			os.Remove(tmp)
		}
	}()
	if _, err = f.Write(buf.Bytes()); err != nil {
		return fmt.Errorf("core: snapshot write: %w", err)
	}
	if err = f.Sync(); err != nil {
		return fmt.Errorf("core: snapshot fsync: %w", err)
	}
	if err = f.Close(); err != nil {
		return fmt.Errorf("core: snapshot close: %w", err)
	}
	if err = os.Rename(tmp, path); err != nil {
		return fmt.Errorf("core: snapshot rename: %w", err)
	}
	// Persist the rename itself. Directory fsync is best-effort where the
	// platform disallows opening directories; the rename is already atomic
	// with respect to readers either way.
	if d, derr := os.Open(dir); derr == nil {
		_ = d.Sync()
		_ = d.Close()
	}
	return nil
}

// ReadSnapshotFile reads a snapshot written by WriteSnapshotFile and
// returns its payload after verifying length and checksum; damaged framing
// yields an error wrapping ErrSnapshotCorrupt. Files that predate the
// framing (raw Export JSON, no magic) are returned as-is for backward
// compatibility — they carry no integrity protection.
func ReadSnapshotFile(path string) ([]byte, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	if !bytes.HasPrefix(raw, snapshotMagic) {
		return raw, nil // legacy unframed snapshot
	}
	if len(raw) < snapshotHeaderLen {
		return nil, fmt.Errorf("%w: %s: %d-byte header truncated", ErrSnapshotCorrupt, path, len(raw))
	}
	sum := binary.BigEndian.Uint32(raw[len(snapshotMagic):])
	n := binary.BigEndian.Uint64(raw[len(snapshotMagic)+4:])
	payload := raw[snapshotHeaderLen:]
	if n != uint64(len(payload)) {
		return nil, fmt.Errorf("%w: %s: payload %d bytes, header says %d", ErrSnapshotCorrupt, path, len(payload), n)
	}
	if got := crc32.ChecksumIEEE(payload); got != sum {
		return nil, fmt.Errorf("%w: %s: checksum %08x, header says %08x", ErrSnapshotCorrupt, path, got, sum)
	}
	return payload, nil
}

// SnapshotSummary describes an exported plan cache without rehydrating it.
type SnapshotSummary struct {
	Plans     []SnapshotPlan
	Instances int
	// Dimensions is the selectivity-vector width of the stored instances.
	Dimensions int
}

// SnapshotPlan summarizes one cached plan within a snapshot.
type SnapshotPlan struct {
	Fingerprint string
	// Instances is the number of instance entries bound to this plan;
	// Usage is their aggregate usage count U.
	Instances int
	Usage     int64
	// MinCost and MaxCost bound the optimal costs of the bound instances.
	MinCost, MaxCost float64
	// Quarantined counts entries excluded from cost-check reuse (App. G).
	Quarantined int
}

// InspectSnapshot parses an Export-produced snapshot and returns its
// summary. It does not need an engine: plans are summarized structurally.
func InspectSnapshot(data []byte) (*SnapshotSummary, error) {
	var in cacheJSON
	if err := json.Unmarshal(data, &in); err != nil {
		return nil, fmt.Errorf("core: inspect: %w", err)
	}
	out := &SnapshotSummary{Instances: len(in.Instances)}
	byFP := make(map[string]*SnapshotPlan)
	var order []string
	for i, raw := range in.Plans {
		p, err := plan.UnmarshalPlan(raw)
		if err != nil {
			return nil, fmt.Errorf("core: inspect plan %d: %w", i, err)
		}
		fp := p.Fingerprint()
		if _, dup := byFP[fp]; !dup {
			byFP[fp] = &SnapshotPlan{Fingerprint: fp}
			order = append(order, fp)
		}
	}
	for i, ij := range in.Instances {
		sp, ok := byFP[ij.PlanFP]
		if !ok {
			return nil, fmt.Errorf("core: inspect: instance %d references unknown plan %q", i, ij.PlanFP)
		}
		if out.Dimensions == 0 {
			out.Dimensions = len(ij.V)
		}
		sp.Instances++
		sp.Usage += ij.U
		if ij.Quarantined {
			sp.Quarantined++
		}
		if sp.MinCost == 0 || ij.C < sp.MinCost {
			sp.MinCost = ij.C
		}
		if ij.C > sp.MaxCost {
			sp.MaxCost = ij.C
		}
	}
	for _, fp := range order {
		out.Plans = append(out.Plans, *byFP[fp])
	}
	return out, nil
}
