package obs

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"sync"
	"time"
)

// ManifestVersion identifies the manifest schema; bump it when a required
// field changes shape. Version 2 added the required Status field.
const ManifestVersion = 2

// Run status values recorded in Manifest.Status.
const (
	// StatusOK marks a run that completed normally.
	StatusOK = "ok"
	// StatusFailed marks a run that exited with a non-cancellation error.
	StatusFailed = "failed"
	// StatusInterrupted marks a run cut short by SIGINT/SIGTERM or context
	// cancellation; its checkpoint (if any) is valid for -resume.
	StatusInterrupted = "interrupted"
)

// Manifest is the per-run record a binary writes via -metrics-out: enough
// to re-run the exact invocation (binary, args, params, seed), attribute
// it to a build (VCS revision, Go version), and see what it cost (wall and
// CPU time) and did (the metric snapshot).
type Manifest struct {
	Version int    `json:"version"`
	Binary  string `json:"binary"`
	// Args are the command-line arguments as parsed (flag values included).
	Args []string `json:"args,omitempty"`
	// Params carries the scenario or tool-specific configuration; it is
	// schema-free by design (each binary stores what it ran).
	Params any `json:"params,omitempty"`
	// Seed is the campaign seed for simulation-backed runs, 0 otherwise.
	Seed int64 `json:"seed,omitempty"`
	// VCSRevision/VCSTime/VCSModified come from the embedded build info —
	// the `git describe` equivalent available without shelling out.
	VCSRevision string `json:"vcs_revision,omitempty"`
	VCSTime     string `json:"vcs_time,omitempty"`
	VCSModified bool   `json:"vcs_modified,omitempty"`
	GoVersion   string `json:"go_version"`
	GOOS        string `json:"goos"`
	GOARCH      string `json:"goarch"`
	NumCPU      int    `json:"num_cpu"`
	GOMAXPROCS  int    `json:"gomaxprocs"`
	// Start is when the run began; WallSeconds and CPUSeconds are the
	// elapsed wall clock and the process's user+system CPU time at Close.
	Start       time.Time `json:"start"`
	WallSeconds float64   `json:"wall_seconds"`
	CPUSeconds  float64   `json:"cpu_seconds"`
	// Status records how the run ended: StatusOK, StatusFailed, or
	// StatusInterrupted. Error carries the failure message for non-ok runs
	// and FailedPoint names the sweep point that caused it, when known.
	Status      string `json:"status"`
	Error       string `json:"error,omitempty"`
	FailedPoint string `json:"failed_point,omitempty"`
	// Metrics is the Default-registry snapshot taken at Close.
	Metrics Snapshot `json:"metrics"`
}

// buildIdentity holds the build provenance shared by run manifests and
// checkpoint fingerprints.
type buildIdentity struct {
	vcsRevision string
	vcsTime     string
	vcsModified bool
	goVersion   string
}

// buildID is the binary's build identity, read once: debug.ReadBuildInfo
// parses the whole embedded module info on every call, and serve
// fingerprints every request that misses its raw-digest probe.
var buildID = sync.OnceValue(readBuildIdentity)

// readBuildIdentity reads the embedded build info — the `git describe`
// equivalent available without shelling out.
func readBuildIdentity() buildIdentity {
	id := buildIdentity{goVersion: runtime.Version()}
	if info, ok := debug.ReadBuildInfo(); ok {
		for _, s := range info.Settings {
			switch s.Key {
			case "vcs.revision":
				id.vcsRevision = s.Value
			case "vcs.time":
				id.vcsTime = s.Value
			case "vcs.modified":
				id.vcsModified = s.Value == "true"
			}
		}
	}
	return id
}

// Fingerprint derives a stable hex digest identifying one campaign: the
// binary, its canonical parameter encoding, the seed, and the build that
// produced the results (VCS revision, dirty flag, Go version). Checkpoints
// store it so a resume against different parameters or a different build is
// refused instead of silently merging incompatible results.
func Fingerprint(binary, paramsJSON string, seed int64) string {
	id := buildID()
	h := sha256.New()
	fmt.Fprintf(h, "v1\x00%s\x00%s\x00%d\x00%s\x00%t\x00%s",
		binary, paramsJSON, seed, id.vcsRevision, id.vcsModified, id.goVersion)
	return hex.EncodeToString(h.Sum(nil))
}

// newManifest stamps the static fields of a run manifest.
func newManifest(binary string, args []string) *Manifest {
	id := buildID()
	return &Manifest{
		Version:     ManifestVersion,
		Binary:      binary,
		Args:        args,
		VCSRevision: id.vcsRevision,
		VCSTime:     id.vcsTime,
		VCSModified: id.vcsModified,
		GoVersion:   id.goVersion,
		GOOS:        runtime.GOOS,
		GOARCH:      runtime.GOARCH,
		NumCPU:      runtime.NumCPU(),
		GOMAXPROCS:  runtime.GOMAXPROCS(0),
		Start:       time.Now(),
	}
}

// WriteFile serializes the manifest as indented JSON to path.
func (m *Manifest) WriteFile(path string) error {
	buf, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		return fmt.Errorf("obs: marshal manifest: %w", err)
	}
	buf = append(buf, '\n')
	if err := os.WriteFile(path, buf, 0o644); err != nil {
		return fmt.Errorf("obs: write manifest: %w", err)
	}
	return nil
}

// ValidateManifestJSON schema-checks a serialized manifest: it must be
// valid JSON with the required identity, host, and timing fields present
// and plausible. CLI tests run every binary's -metrics-out output through
// this.
func ValidateManifestJSON(data []byte) error {
	var m Manifest
	if err := json.Unmarshal(data, &m); err != nil {
		return fmt.Errorf("obs: manifest not valid JSON: %w", err)
	}
	switch {
	case m.Version != ManifestVersion:
		return fmt.Errorf("obs: manifest version %d, want %d", m.Version, ManifestVersion)
	case m.Binary == "":
		return fmt.Errorf("obs: manifest missing binary name")
	case m.GoVersion == "":
		return fmt.Errorf("obs: manifest missing go_version")
	case m.GOOS == "" || m.GOARCH == "":
		return fmt.Errorf("obs: manifest missing goos/goarch")
	case m.NumCPU < 1 || m.GOMAXPROCS < 1:
		return fmt.Errorf("obs: manifest host fields implausible: num_cpu=%d gomaxprocs=%d", m.NumCPU, m.GOMAXPROCS)
	case m.Start.IsZero():
		return fmt.Errorf("obs: manifest missing start time")
	case m.WallSeconds < 0 || m.CPUSeconds < 0:
		return fmt.Errorf("obs: manifest negative timing: wall=%v cpu=%v", m.WallSeconds, m.CPUSeconds)
	case m.Status != StatusOK && m.Status != StatusFailed && m.Status != StatusInterrupted:
		return fmt.Errorf("obs: manifest status %q, want ok|failed|interrupted", m.Status)
	case m.Status != StatusOK && m.Error == "":
		return fmt.Errorf("obs: manifest status %q without an error message", m.Status)
	}
	return nil
}
