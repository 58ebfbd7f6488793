package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strconv"

	"graphmat/internal/server"
)

// graphName is the name every workload registers its graph under.
const graphName = "g"

// maxConns is the client connection cap: the recording box has two cores.
const maxConns = 2

// service is one in-process server.Server behind loopback HTTP. plain
// serves the untraced phase; traced wraps the same server in a
// tracedHandler once tracing starts.
type service struct {
	srv    *server.Server
	plain  *httptest.Server
	traced *httptest.Server
	hc     *http.Client
}

// startService builds a server and uploads the run's graph as an edge list.
func startService(cfg server.Config, in *inputs) (*service, error) {
	srv := server.New(cfg)
	s := &service{
		srv:   srv,
		plain: httptest.NewServer(srv),
		hc: &http.Client{Transport: &http.Transport{
			MaxConnsPerHost:     maxConns,
			MaxIdleConnsPerHost: maxConns,
			DisableCompression:  true,
		}},
	}
	var buf bytes.Buffer
	status, err := s.post(s.plain.URL+"/v1/graphs?format=edgelist&name="+graphName, in.upload, "", &buf)
	if err == nil && status != http.StatusCreated {
		err = fmt.Errorf("upload: status %d: %s", status, buf.Bytes())
	}
	if err != nil {
		s.close()
		return nil, err
	}
	return s, nil
}

// trace starts the traced listener; spans go to tr.
func (s *service) trace(tr *tracer) {
	s.traced = httptest.NewServer(tracedHandler{next: s.srv, tr: tr})
}

// url returns the endpoint path on the traced listener when tracing, else on
// the plain one.
func (s *service) url(traced bool, path string) string {
	if traced {
		return s.traced.URL + path
	}
	return s.plain.URL + path
}

func (s *service) close() {
	s.hc.CloseIdleConnections()
	s.plain.Close()
	if s.traced != nil {
		s.traced.Close()
	}
}

// post sends body and reads the whole response into buf. ref, when
// non-empty, is the span reference the traced handler attaches to.
func (s *service) post(url string, body []byte, ref string, buf *bytes.Buffer) (int, error) {
	req, err := http.NewRequest(http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		return 0, err
	}
	req.Header.Set("Content-Type", "application/json")
	if ref != "" {
		req.Header.Set(spanHeader, ref)
	}
	resp, err := s.hc.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	buf.Reset()
	_, err = buf.ReadFrom(resp.Body)
	return resp.StatusCode, err
}

// statsView is the part of GET /v1/stats the benchmark reads.
type statsView struct {
	Cache struct {
		Hits, Misses int64
	}
	Batcher struct {
		Submitted, Batches, Coalesced int64
	}
	Graphs map[string]struct {
		Algorithms map[string]struct {
			WorkspaceAllocs int64 `json:"workspace_allocs"`
			Store           struct {
				Compactions int64
			}
		}
		Persist *struct {
			Checkpoints int64
		}
	}
}

func (s *service) stats() (statsView, error) {
	var v statsView
	resp, err := s.hc.Get(s.plain.URL + "/v1/stats")
	if err != nil {
		return v, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return v, fmt.Errorf("stats: status %d", resp.StatusCode)
	}
	return v, json.NewDecoder(resp.Body).Decode(&v)
}

// runAnswer is the part of a run response the output check reads.
type runAnswer struct {
	Values []float64 `json:"values"`
	Epoch  uint64    `json:"epoch"`
}

func decodeAnswer(body []byte) (runAnswer, error) {
	var a runAnswer
	err := json.Unmarshal(body, &a)
	return a, err
}

// durationMS reads the response's duration_ms without decoding the value
// array that follows it.
func durationMS(body []byte) (float64, bool) {
	const key = `"duration_ms":`
	i := bytes.Index(body, []byte(key))
	if i < 0 {
		return 0, false
	}
	rest := body[i+len(key):]
	j := bytes.IndexAny(rest, ",}")
	if j < 0 {
		return 0, false
	}
	v, err := strconv.ParseFloat(string(rest[:j]), 64)
	return v, err == nil
}

func bfsRequest(src uint32) []byte {
	b := append([]byte(`{"algo":"bfs","sources":[`), strconv.FormatUint(uint64(src), 10)...)
	return append(b, "]}"...)
}

func pageRankRequest(iters int) []byte {
	return []byte(`{"algo":"pagerank","params":{"iters":` + strconv.Itoa(iters) + `,"tolerance":0}}`)
}
