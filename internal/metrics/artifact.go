package metrics

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"strings"
)

// Artifact is the output of one experiment: either a set of (x, y) series
// (figures) or a rendered table of string cells (parameter tables, scenario
// summaries), plus free-form notes such as crossover annotations. Artifacts
// encode to aligned text, CSV, and JSON, and round-trip through JSON.
type Artifact struct {
	// Name is the registry name of the producing experiment.
	Name string `json:"name"`
	// Title is the human-readable headline, e.g. a figure caption.
	Title string `json:"title"`
	// XLabel names the swept parameter for series artifacts.
	XLabel string `json:"xlabel,omitempty"`
	// Series holds the figure curves; nil for table artifacts.
	Series []*Series `json:"series,omitempty"`
	// Table holds rows of cells (first row is the header); nil for series
	// artifacts.
	Table [][]string `json:"table,omitempty"`
	// Notes are human-readable annotations (crossover statistics etc.).
	Notes []string `json:"notes,omitempty"`
}

// Text renders the artifact as an aligned text table with a title header
// and trailing notes — the format `lotus-sim figures` prints.
func (a *Artifact) Text() string {
	var b strings.Builder
	fmt.Fprintf(&b, "## %s\n\n", a.Title)
	if len(a.Table) > 0 {
		b.WriteString(RenderRows(a.Table))
	} else {
		b.WriteString(Table(a.xLabel(), a.Series...))
	}
	for _, n := range a.Notes {
		fmt.Fprintf(&b, "# %s\n", n)
	}
	return b.String()
}

// CSV renders the artifact as comma-separated values: series artifacts get
// an x column followed by one column per series; table artifacts get their
// cells escaped row by row.
func (a *Artifact) CSV() string {
	if len(a.Table) > 0 {
		var b strings.Builder
		for _, row := range a.Table {
			for i, cell := range row {
				if i > 0 {
					b.WriteString(",")
				}
				b.WriteString(csvEscape(cell))
			}
			b.WriteString("\n")
		}
		return b.String()
	}
	return CSV(a.xLabel(), a.Series...)
}

// JSON encodes the artifact; DecodeArtifact inverts it.
func (a *Artifact) JSON() ([]byte, error) {
	return json.MarshalIndent(a, "", "  ")
}

// CanonicalJSON encodes the artifact in canonical form: the compact JSON
// encoding, deterministic byte for byte (struct fields in declaration
// order), so equal artifacts always serialize identically. This is the
// content that Address hashes and the experiment service caches.
func (a *Artifact) CanonicalJSON() ([]byte, error) {
	return json.Marshal(a)
}

// Address returns the artifact's content address, "sha256:<hex>" of its
// canonical JSON. Two runs that produce bit-identical results share one
// address — the experiment service exposes it as the ETag of a cached
// result, so clients can detect that two different requests converged on
// the same content.
func (a *Artifact) Address() (string, error) {
	data, err := a.CanonicalJSON()
	if err != nil {
		return "", err
	}
	return AddressBytes(data), nil
}

// AddressBytes returns the content address of an already-encoded canonical
// JSON body — what Address computes, without re-encoding, for callers that
// hold the bytes anyway.
func AddressBytes(canonical []byte) string {
	sum := sha256.Sum256(canonical)
	return "sha256:" + hex.EncodeToString(sum[:])
}

// DecodeArtifact parses the output of Artifact.JSON.
func DecodeArtifact(data []byte) (*Artifact, error) {
	var a Artifact
	if err := json.Unmarshal(data, &a); err != nil {
		return nil, fmt.Errorf("metrics: decoding artifact: %w", err)
	}
	return &a, nil
}

func (a *Artifact) xLabel() string {
	if a.XLabel != "" {
		return a.XLabel
	}
	return "x"
}
