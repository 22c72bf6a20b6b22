package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"loopapalooza/internal/core"
	"loopapalooza/internal/serve"
)

// lpdBudgets are lpd's standalone defaults: -max-steps 500M and -timeout
// 30s, applied both as the default and as the cap.
var lpdBudgets = serve.Budgets{MaxSteps: 500_000_000, TimeoutMs: 30_000}

// lpdServer is an in-process serve.Server configured like a standalone lpd
// with no data directory (memory trace tier only), listening on loopback.
// The embedded cluster coordinator is left out: no request of these
// workloads reaches it.
type lpdServer struct {
	srv    *serve.Server
	url    string
	client *http.Client
	done   chan error
}

func startServer() (*lpdServer, error) {
	srv, err := serve.New(serve.Options{DefaultBudgets: lpdBudgets, MaxBudgets: lpdBudgets})
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Close()
		return nil, err
	}
	s := &lpdServer{
		srv:    srv,
		url:    "http://" + ln.Addr().String(),
		client: &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 4}},
		done:   make(chan error, 1),
	}
	go func() { s.done <- srv.Serve(ln) }()
	return s, nil
}

// ready waits for the server to answer GET /healthz.
func (s *lpdServer) ready() error {
	resp, err := s.client.Get(s.url + "/healthz")
	if err != nil {
		return err
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("healthz: status %d", resp.StatusCode)
	}
	return nil
}

// stop drains the server and waits for its serve loop to return.
func (s *lpdServer) stop() error {
	s.client.CloseIdleConnections()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	err := s.srv.Shutdown(ctx)
	s.srv.Close()
	if serr := <-s.done; err == nil {
		err = serr
	}
	return err
}

// request is one POST /v1/analyze of program prog under cfg. class is what
// the request should be, judged from the requests before it: "hit" (same
// program and configuration seen), "replay" (same program, new
// configuration) or "live" (new program).
type request struct {
	prog  int
	cfg   core.Config
	body  []byte
	class string
}

func newRequest(prog int, name, src string, cfg core.Config) (request, error) {
	body, err := json.Marshal(serve.AnalyzeRequest{Name: name, Source: src, Config: cfg.String()})
	if err != nil {
		return request{}, err
	}
	return request{prog: prog, cfg: cfg, body: body}, nil
}

// classify sets each request's class from the key history before it.
func classify(reqs []request) {
	type key struct {
		prog int
		cfg  core.Config
	}
	seenKey := map[key]bool{}
	seenProg := map[int]bool{}
	for i := range reqs {
		k := key{reqs[i].prog, reqs[i].cfg}
		switch {
		case seenKey[k]:
			reqs[i].class = "hit"
		case seenProg[k.prog]:
			reqs[i].class = "replay"
		default:
			reqs[i].class = "live"
		}
		seenKey[k], seenProg[k.prog] = true, true
	}
}

// response is what the client saw: status, the compacted report of a 200
// response, and the latency from sending to reading the whole body.
type response struct {
	status int
	report []byte
	lat    time.Duration
}

// send runs the requests through clients closed-loop callers (each sends
// its next request when the previous one has returned) and returns the
// responses in request order with the wall and CPU time of the whole
// stream.
func (s *lpdServer) send(tr *tracer, parent int, reqs []request, clients int) ([]response, time.Duration, time.Duration) {
	resps := make([]response, len(reqs))
	var next atomic.Int64
	var wg sync.WaitGroup
	wall, cpu := timed(func() {
		for c := 0; c < clients; c++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := int(next.Add(1) - 1); i < len(reqs); i = int(next.Add(1) - 1) {
					id := tr.begin("serve.request", parent, i)
					resps[i] = s.post(reqs[i].body)
					tr.end(id)
				}
			}()
		}
		wg.Wait()
	})
	return resps, wall, cpu
}

// post sends one analyze request. A transport error reads as status 0.
func (s *lpdServer) post(body []byte) response {
	t0 := time.Now()
	resp, err := s.client.Post(s.url+"/v1/analyze", "application/json", bytes.NewReader(body))
	if err != nil {
		return response{lat: time.Since(t0)}
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	r := response{status: resp.StatusCode, lat: time.Since(t0)}
	if err != nil {
		r.status = 0
		return r
	}
	if r.status == http.StatusOK {
		var ar struct {
			Report json.RawMessage `json:"report"`
		}
		var buf bytes.Buffer
		if json.Unmarshal(data, &ar) != nil || json.Compact(&buf, ar.Report) != nil {
			r.status = 0
			return r
		}
		r.report = buf.Bytes()
	}
	return r
}

// scrape reads the server's /metrics exposition into series → value.
func (s *lpdServer) scrape() (map[string]float64, error) {
	resp, err := s.client.Get(s.url + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	out := map[string]float64{}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		i := strings.LastIndexByte(line, ' ')
		if strings.HasPrefix(line, "#") || i < 0 {
			continue
		}
		if v, err := strconv.ParseFloat(line[i+1:], 64); err == nil {
			out[line[:i]] = v
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("reading /metrics: %w", err)
	}
	return out, nil
}

// serveLayers derives the serve-layer metrics of one request stream from
// the client's latencies and the server's /metrics.
func serveLayers(reqs []request, resps []response, m map[string]float64) map[string]float64 {
	var client float64
	byClass := map[string][]float64{}
	for i, r := range resps {
		client += r.lat.Seconds()
		byClass[reqs[i].class] = append(byClass[reqs[i].class], ms(r.lat))
	}
	handler := m[`lpd_request_seconds_sum{path="/v1/analyze"}`]
	hits := m["lpd_cache_hits_total"] + m["lpd_cache_coalesced_total"]
	traceHits, traceMisses := m["lpd_trace_cache_hits_total"], m["lpd_trace_cache_misses_total"]
	return map[string]float64{
		"serve.handler_s":       handler,
		"serve.transport_s":     client - handler,
		"serve.cache_hit_ratio": hits / (hits + m["lpd_cache_misses_total"]),
		"serve.trace_hit_ratio": traceHits / (traceHits + traceMisses),
		"serve.live_runs":       traceMisses,
		"serve.hit_p50_ms":      median(byClass["hit"]),
		"serve.replay_p50_ms":   median(byClass["replay"]),
		"serve.live_p50_ms":     median(byClass["live"]),
	}
}
