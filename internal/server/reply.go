package server

import (
	"encoding/json"
	"maps"
	"math"
	"net/http"
	"reflect"
	"slices"
	"strconv"
	"sync"
	"unicode/utf8"

	"graphmat"
)

// Run replies are the server's large responses: one value per vertex, so a
// BFS reply on a 32K-vertex graph is about 140 KB and a PageRank reply
// about 430 KB. encoding/json spends most of a lone BFS request's non-engine
// time on them, so they are encoded here instead: appended field by field
// into a pooled buffer and sent with one Write. The bytes are exactly those
// of json.NewEncoder(w).Encode(reply) — the same float formatting, string
// escaping and trailing newline — and FuzzRunReplyEncoding holds the two to
// that.

// replyBufs pools the reply buffers across requests.
var replyBufs = sync.Pool{New: func() any { return new([]byte) }}

// replyAppender is a reply that appends its own JSON encoding.
type replyAppender interface {
	appendJSON(b []byte) ([]byte, error)
}

// writeReply sends a 200 run reply. The whole body is encoded before
// anything is written, so a reply that cannot be encoded (a non-finite
// value) becomes a 500 with a JSON error instead of a 200 with an empty body.
func writeReply(w http.ResponseWriter, v replyAppender) {
	bp := replyBufs.Get().(*[]byte)
	defer replyBufs.Put(bp)
	b, err := v.appendJSON((*bp)[:0])
	*bp = b
	if err != nil {
		writeError(w, http.StatusInternalServerError, "encoding reply: %v", err)
		return
	}
	h := w.Header()
	h.Set("Content-Type", "application/json")
	h.Set("Content-Length", strconv.Itoa(len(b)))
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(b)
}

// writeReplyLine writes a reply as the final line of an NDJSON stream; a
// reply that cannot be encoded becomes an error line.
func writeReplyLine(w http.ResponseWriter, v replyAppender) {
	bp := replyBufs.Get().(*[]byte)
	defer replyBufs.Put(bp)
	b, err := v.appendJSON((*bp)[:0])
	*bp = b
	if err != nil {
		_ = json.NewEncoder(w).Encode(map[string]string{"error": "encoding reply: " + err.Error()})
		return
	}
	_, _ = w.Write(b)
}

func (r *runResponse) appendJSON(b []byte) ([]byte, error) {
	b = append(b, `{"graph":`...)
	b = appendString(b, r.Graph)
	b = append(b, `,"algorithm":`...)
	b = appendString(b, r.Algorithm)
	b = append(b, `,"cached":`...)
	b = strconv.AppendBool(b, r.Cached)
	if r.Coalesced {
		b = append(b, `,"coalesced":true`...)
	}
	b = append(b, `,"duration_ms":`...)
	b, err := appendFloat(b, r.DurationMS)
	if err != nil {
		return b, err
	}
	if len(r.Values) > 0 {
		b = append(b, `,"values":`...)
		if b, err = appendFloats(b, r.Values); err != nil {
			return b, err
		}
	}
	if len(r.Series) > 0 {
		b = append(b, `,"series":{`...)
		for i, name := range slices.Sorted(maps.Keys(r.Series)) {
			if i > 0 {
				b = append(b, ',')
			}
			b = appendString(b, name)
			b = append(b, ':')
			if b, err = appendFloats(b, r.Series[name]); err != nil {
				return b, err
			}
		}
		b = append(b, '}')
	}
	if r.Count != nil {
		b = append(b, `,"count":`...)
		b = strconv.AppendInt(b, *r.Count, 10)
	}
	b = append(b, `,"stats":`...)
	b = appendStats(b, &r.Stats)
	b = append(b, `,"epoch":`...)
	b = strconv.AppendUint(b, r.Epoch, 10)
	return append(b, "}\n"...), nil
}

func (r *batchRunResponse) appendJSON(b []byte) ([]byte, error) {
	b = append(b, `{"graph":`...)
	b = appendString(b, r.Graph)
	b = append(b, `,"algorithm":`...)
	b = appendString(b, r.Algorithm)
	b = append(b, `,"duration_ms":`...)
	b, err := appendFloat(b, r.DurationMS)
	if err != nil {
		return b, err
	}
	b = append(b, `,"sources":`...)
	if r.Sources == nil {
		b = append(b, "null"...)
	} else {
		b = append(b, '[')
		for i, s := range r.Sources {
			if i > 0 {
				b = append(b, ',')
			}
			b = strconv.AppendUint(b, uint64(s), 10)
		}
		b = append(b, ']')
	}
	b = append(b, `,"values":`...)
	if r.Values == nil {
		b = append(b, "null"...)
	} else {
		b = append(b, '[')
		for i, col := range r.Values {
			if i > 0 {
				b = append(b, ',')
			}
			if b, err = appendFloats(b, col); err != nil {
				return b, err
			}
		}
		b = append(b, ']')
	}
	b = append(b, `,"stats":`...)
	b = appendStats(b, &r.Stats)
	b = append(b, `,"epoch":`...)
	b = strconv.AppendUint(b, r.Epoch, 10)
	return append(b, "}\n"...), nil
}

// appendStats appends the engine stats as encoding/json renders the
// untagged struct: Go field names in declaration order.
func appendStats(b []byte, s *graphmat.Stats) []byte {
	b = append(b, `{"Iterations":`...)
	b = strconv.AppendInt(b, int64(s.Iterations), 10)
	b = append(b, `,"MessagesSent":`...)
	b = strconv.AppendInt(b, s.MessagesSent, 10)
	b = append(b, `,"EdgesProcessed":`...)
	b = strconv.AppendInt(b, s.EdgesProcessed, 10)
	b = append(b, `,"Applies":`...)
	b = strconv.AppendInt(b, s.Applies, 10)
	b = append(b, `,"ActiveSum":`...)
	b = strconv.AppendInt(b, s.ActiveSum, 10)
	b = append(b, `,"ColumnsProbed":`...)
	b = strconv.AppendInt(b, s.ColumnsProbed, 10)
	b = append(b, `,"PushSupersteps":`...)
	b = strconv.AppendInt(b, s.PushSupersteps, 10)
	b = append(b, `,"PullSupersteps":`...)
	b = strconv.AppendInt(b, s.PullSupersteps, 10)
	b = append(b, `,"Reason":`...)
	b = appendString(b, s.Reason.String())
	b = append(b, `,"Sched":{"Workers":`...)
	b = strconv.AppendInt(b, int64(s.Sched.Workers), 10)
	b = append(b, `,"Tasks":`...)
	b = strconv.AppendInt(b, s.Sched.Tasks, 10)
	b = append(b, `,"Steals":`...)
	b = strconv.AppendInt(b, s.Sched.Steals, 10)
	b = append(b, `,"BusyNS":`...)
	b = strconv.AppendInt(b, s.Sched.BusyNS, 10)
	return append(b, "}}"...)
}

// appendFloats appends a value series; a nil series is null, as
// encoding/json renders it.
func appendFloats(b []byte, fs []float64) ([]byte, error) {
	if fs == nil {
		return append(b, "null"...), nil
	}
	b = append(b, '[')
	var err error
	for i, f := range fs {
		if i > 0 {
			b = append(b, ',')
		}
		if b, err = appendFloat(b, f); err != nil {
			return b, err
		}
	}
	return append(b, ']'), nil
}

// appendFloat appends f as encoding/json does: an error for NaN and ±Inf,
// 'e' notation below 1e-6 and from 1e21 up (exponent without a leading
// zero), the shortest round-tripping 'f' form otherwise.
func appendFloat(b []byte, f float64) ([]byte, error) {
	if math.IsInf(f, 0) || math.IsNaN(f) {
		return b, &json.UnsupportedValueError{Value: reflect.ValueOf(f), Str: strconv.FormatFloat(f, 'g', -1, 64)}
	}
	abs := math.Abs(f)
	// Integral values below 2^53 print as their integer digits in the 'f'
	// form (their shortest representation is exact), so the integer path
	// serves hop counts and labels; -0 keeps its sign through AppendFloat.
	if abs < 1<<53 && f == math.Trunc(f) && (f != 0 || !math.Signbit(f)) {
		return strconv.AppendInt(b, int64(f), 10), nil
	}
	format := byte('f')
	if abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, f, format, -1, 64)
	if format == 'e' {
		// e-09 → e-9
		n := len(b)
		if n >= 4 && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
			b[n-2] = b[n-1]
			b = b[:n-1]
		}
	}
	return b, nil
}

const hexDigits = "0123456789abcdef"

// appendString appends s as a JSON string the way encoding/json does with
// HTML escaping on (its default): <, > and & as \u00XX escapes, control
// bytes escaped, invalid UTF-8 replaced by \ufffd, and U+2028 and U+2029
// escaped.
func appendString(b []byte, s string) []byte {
	b = append(b, '"')
	start := 0
	for i := 0; i < len(s); {
		if c := s[i]; c < utf8.RuneSelf {
			if c >= 0x20 && c != '"' && c != '\\' && c != '<' && c != '>' && c != '&' {
				i++
				continue
			}
			b = append(b, s[start:i]...)
			switch c {
			case '\\', '"':
				b = append(b, '\\', c)
			case '\b':
				b = append(b, '\\', 'b')
			case '\f':
				b = append(b, '\\', 'f')
			case '\n':
				b = append(b, '\\', 'n')
			case '\r':
				b = append(b, '\\', 'r')
			case '\t':
				b = append(b, '\\', 't')
			default:
				b = append(b, '\\', 'u', '0', '0', hexDigits[c>>4], hexDigits[c&0xF])
			}
			i++
			start = i
			continue
		}
		r, size := utf8.DecodeRuneInString(s[i:])
		if r == utf8.RuneError && size == 1 {
			b = append(b, s[start:i]...)
			b = append(b, `\ufffd`...)
			i += size
			start = i
			continue
		}
		if r == '\u2028' || r == '\u2029' {
			b = append(b, s[start:i]...)
			b = append(b, '\\', 'u', '2', '0', '2', hexDigits[r&0xF])
			i += size
			start = i
			continue
		}
		i += size
	}
	b = append(b, s[start:]...)
	return append(b, '"')
}
