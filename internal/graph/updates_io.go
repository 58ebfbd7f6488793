package graph

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
)

// Update-stream I/O: the wire formats edge update batches travel in — NDJSON
// (one {"src","dst","weight","del"} object per line) and an op-prefixed text
// edge list ("add src dst [weight]" / "del src dst", bare "src dst [weight]"
// lines defaulting to add). Both are line-oriented so batches stream through
// HTTP bodies and files without framing.

// updateRecord is the NDJSON wire form of one Update[float32]. Weight is a
// pointer so an absent field defaults to 1 (the unweighted convention the
// text loaders share) while an explicit 0 stays 0.
type updateRecord struct {
	Src    uint32   `json:"src"`
	Dst    uint32   `json:"dst"`
	Weight *float32 `json:"weight,omitempty"`
	Del    bool     `json:"del,omitempty"`
}

// ParseUpdatesNDJSON parses an NDJSON update stream. Blank lines are
// skipped; errors carry 1-based line numbers.
func ParseUpdatesNDJSON(data []byte) ([]Update[float32], error) {
	var ups []Update[float32]
	lineno := 0
	for len(data) > 0 {
		lineno++
		line := data
		if i := bytes.IndexByte(data, '\n'); i >= 0 {
			line, data = data[:i], data[i+1:]
		} else {
			data = nil
		}
		line = bytes.TrimSpace(line)
		if len(line) == 0 {
			continue
		}
		var rec updateRecord
		dec := json.NewDecoder(bytes.NewReader(line))
		dec.DisallowUnknownFields()
		if err := dec.Decode(&rec); err != nil {
			return nil, fmt.Errorf("updates line %d: %v", lineno, err)
		}
		w := float32(1)
		if rec.Weight != nil {
			w = *rec.Weight
		}
		ups = append(ups, Update[float32]{Src: rec.Src, Dst: rec.Dst, Val: w, Del: rec.Del})
	}
	return ups, nil
}

// ParseUpdateList parses the text update form: one update per line, fields
// whitespace-separated — ["add"|"del"] src dst [weight] — with '#' comment
// lines. A line without an op is an add; weight defaults to 1 and is
// ignored on del lines.
func ParseUpdateList(data []byte) ([]Update[float32], error) {
	var ups []Update[float32]
	lineno := 0
	for len(data) > 0 {
		lineno++
		line := data
		if i := bytes.IndexByte(data, '\n'); i >= 0 {
			line, data = data[:i], data[i+1:]
		} else {
			data = nil
		}
		fields := bytes.Fields(line)
		if len(fields) == 0 || fields[0][0] == '#' {
			continue
		}
		del := false
		switch string(fields[0]) {
		case "add":
			fields = fields[1:]
		case "del":
			del = true
			fields = fields[1:]
		}
		if len(fields) < 2 || len(fields) > 3 {
			return nil, fmt.Errorf("updates line %d: want [add|del] src dst [weight]", lineno)
		}
		src, err := parseUint32(fields[0])
		if err != nil {
			return nil, fmt.Errorf("updates line %d: src: %v", lineno, err)
		}
		dst, err := parseUint32(fields[1])
		if err != nil {
			return nil, fmt.Errorf("updates line %d: dst: %v", lineno, err)
		}
		w := float32(1)
		if len(fields) == 3 && !del {
			f, err := parseWeight(fields[2])
			if err != nil {
				return nil, fmt.Errorf("updates line %d: weight: %v", lineno, err)
			}
			w = f
		}
		ups = append(ups, Update[float32]{Src: src, Dst: dst, Val: w, Del: del})
	}
	return ups, nil
}

// ParseUpdates parses an update stream, sniffing the format: a first
// non-space byte of '{' selects NDJSON, anything else the text form.
func ParseUpdates(data []byte) ([]Update[float32], error) {
	trimmed := bytes.TrimLeft(data, " \t\r\n")
	if len(trimmed) > 0 && trimmed[0] == '{' {
		return ParseUpdatesNDJSON(data)
	}
	return ParseUpdateList(data)
}

// WriteUpdates writes an update stream as NDJSON.
func WriteUpdates(w io.Writer, ups []Update[float32]) error {
	bw := bufio.NewWriter(w)
	for _, u := range ups {
		w32 := u.Val
		rec := updateRecord{Src: u.Src, Dst: u.Dst, Del: u.Del}
		if !u.Del {
			rec.Weight = &w32
		}
		b, err := json.Marshal(rec)
		if err != nil {
			return err
		}
		if _, err := bw.Write(append(b, '\n')); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// LoadUpdatesFile reads and parses an update-stream file (format sniffed).
func LoadUpdatesFile(path string) ([]Update[float32], error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return ParseUpdates(data)
}
