// Package serve implements placement-as-a-service: an HTTP/JSON front
// end over the scenario engine. Clients upload .tpn netlists and submit
// scenario scripts as jobs; the server runs each job through
// scenario.RunContext on a bounded worker pool with queue backpressure,
// streams the engine's JSONL trace live, and supports cancellation and
// graceful drain.
//
// The API surface:
//
//	GET  /healthz             liveness probe
//	POST /designs?name=N      upload a .tpn netlist body, store it as N
//	GET  /designs             list stored designs
//	POST /jobs                submit a job (SubmitRequest JSON)
//	GET  /jobs                list jobs
//	GET  /jobs/{id}           one job's status + metrics
//	GET  /jobs/{id}/trace     live JSONL trace stream (ends at flow_end)
//	POST /jobs/{id}/cancel    cancel a queued or running job
//
// Submissions reference either a stored design by name (warm re-runs:
// each run forks the upload-time netio.State, no re-parse) or carry an
// inline .tpn netlist. Bodies over 64 MiB are answered 413. When the
// queue is full the server answers 429 so load sheds at the edge
// instead of piling up; while draining it answers 503.
//
// A submission carrying Entrants is a portfolio race — the premium job
// shape: the design is forked once per entrant, the entrants race
// concurrently inside the job's worker grant, the trace stream merges
// every entrant's tagged events (one flow_end per entrant, then one
// race_verdict, then the job's terminal flow_end), and the job's
// metrics are the winner's. See internal/portfolio for the
// determinism and early-stop rules.
package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"runtime"
	"strings"
	"sync"
	"time"

	"tps/internal/cell"
	"tps/internal/netio"
)

// Config tunes the service.
type Config struct {
	// Concurrency is the number of jobs run simultaneously (default 2).
	Concurrency int
	// QueueDepth bounds the number of jobs waiting beyond the running
	// ones; a submission finding the queue full is answered 429
	// (default 8).
	QueueDepth int
	// Workers is the total analyzer fan-out budget divided between
	// running jobs (default GOMAXPROCS). Every running job gets at
	// least one worker, so the budget can oversubscribe under full
	// load rather than stall.
	Workers int
}

// Server is the placement service. It implements http.Handler.
type Server struct {
	lib *cell.Library
	mux *http.ServeMux

	// baseCtx parents every job's run context; cancelAll aborts all
	// in-flight jobs (the hard phase of shutdown).
	baseCtx   context.Context
	cancelAll context.CancelFunc

	budget  workerBudget
	designs designStore

	mu       sync.Mutex
	jobs     map[string]*Job
	order    []string // submission order, for stable listings
	seq      int
	queue    chan *Job
	draining bool

	wg sync.WaitGroup
}

// New builds a Server and starts its worker pool.
func New(cfg Config) *Server {
	if cfg.Concurrency <= 0 {
		cfg.Concurrency = 2
	}
	if cfg.QueueDepth <= 0 {
		cfg.QueueDepth = 8
	}
	if cfg.Workers <= 0 {
		cfg.Workers = runtime.GOMAXPROCS(0)
	}
	ctx, cancel := context.WithCancel(context.Background())
	s := &Server{
		lib:     cell.Default(),
		baseCtx: ctx, cancelAll: cancel,
		jobs:  map[string]*Job{},
		queue: make(chan *Job, cfg.QueueDepth),
	}
	s.budget.total = cfg.Workers
	s.designs.m = map[string]*storedDesign{}

	s.mux = http.NewServeMux()
	s.mux.HandleFunc("GET /healthz", s.handleHealth)
	s.mux.HandleFunc("POST /designs", s.handleUpload)
	s.mux.HandleFunc("GET /designs", s.handleDesigns)
	s.mux.HandleFunc("POST /jobs", s.handleSubmit)
	s.mux.HandleFunc("GET /jobs", s.handleJobs)
	s.mux.HandleFunc("GET /jobs/{id}", s.handleJob)
	s.mux.HandleFunc("GET /jobs/{id}/trace", s.handleTrace)
	s.mux.HandleFunc("POST /jobs/{id}/cancel", s.handleCancel)

	for i := 0; i < cfg.Concurrency; i++ {
		s.wg.Add(1)
		go s.worker()
	}
	return s
}

// ServeHTTP dispatches to the API mux.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.mux.ServeHTTP(w, r)
}

// Shutdown drains the service: new submissions are rejected
// immediately, queued jobs still run, and Shutdown returns once every
// job has finished. If ctx expires first, all in-flight and queued jobs
// are canceled (each rolls back to its last consistent state and emits
// a terminal flow_end record) and Shutdown waits for that fast path to
// complete before returning ctx's error.
func (s *Server) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	if !s.draining {
		s.draining = true
		close(s.queue) // submissions are mu+draining guarded; safe to close
	}
	s.mu.Unlock()

	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		s.cancelAll()
		<-done
		return ctx.Err()
	}
}

// worker pulls jobs off the queue until it closes and the backlog is
// drained.
func (s *Server) worker() {
	defer s.wg.Done()
	for j := range s.queue {
		s.runJob(j)
	}
}

// --- HTTP handlers ---

const maxBody = 64 << 20 // netlists are text; 64 MiB is generous

func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

func (s *Server) handleUpload(w http.ResponseWriter, r *http.Request) {
	name := r.URL.Query().Get("name")
	if name == "" {
		writeErr(w, http.StatusBadRequest, "missing ?name= for the design")
		return
	}
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxBody))
	if err != nil {
		writeErr(w, bodyErrCode(err), "read body: "+err.Error())
		return
	}
	gd, err := netio.Read(bytes.NewReader(body), s.lib)
	if err != nil {
		writeErr(w, http.StatusBadRequest, "parse netlist: "+err.Error())
		return
	}
	info := s.designs.put(name, gd)
	writeJSON(w, http.StatusCreated, info)
}

func (s *Server) handleDesigns(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.designs.list())
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	var req SubmitRequest
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBody))
	if err := dec.Decode(&req); err != nil {
		writeErr(w, bodyErrCode(err), "decode request: "+err.Error())
		return
	}
	run, err := bindRun(&req)
	if err != nil {
		writeErr(w, http.StatusBadRequest, err.Error())
		return
	}
	j := &Job{run: run, want: req.Workers, hub: newTraceHub(), state: JobQueued}
	switch {
	case req.Design != "" && req.Netlist != "":
		writeErr(w, http.StatusBadRequest, "give either a stored design name or an inline netlist, not both")
		return
	case req.Design != "":
		sd := s.designs.get(req.Design)
		if sd == nil {
			writeErr(w, http.StatusNotFound, "unknown design "+req.Design)
			return
		}
		j.sd = sd
		j.DesignName = req.Design
	case req.Netlist != "":
		gd, err := netio.Read(strings.NewReader(req.Netlist), s.lib)
		if err != nil {
			writeErr(w, http.StatusBadRequest, "parse netlist: "+err.Error())
			return
		}
		j.sd = &storedDesign{base: netio.CaptureDesign(gd)}
		j.DesignName = gd.NL.Name
	default:
		writeErr(w, http.StatusBadRequest, "missing design: set design (stored name) or netlist (inline .tpn)")
		return
	}

	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		writeErr(w, http.StatusServiceUnavailable, "server is draining")
		return
	}
	s.seq++
	j.ID = fmt.Sprintf("j%d", s.seq)
	j.queuedAt = time.Now()
	select {
	case s.queue <- j:
		s.jobs[j.ID] = j
		s.order = append(s.order, j.ID)
		s.mu.Unlock()
	default:
		s.seq-- // the ID was never exposed
		s.mu.Unlock()
		writeErr(w, http.StatusTooManyRequests, "job queue is full; retry later")
		return
	}
	writeJSON(w, http.StatusAccepted, SubmitResponse{JobID: j.ID, State: JobQueued})
}

func (s *Server) handleJobs(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	infos := make([]JobInfo, 0, len(s.order))
	for _, id := range s.order {
		infos = append(infos, s.jobs[id].info())
	}
	s.mu.Unlock()
	writeJSON(w, http.StatusOK, infos)
}

func (s *Server) lookup(w http.ResponseWriter, r *http.Request) *Job {
	s.mu.Lock()
	j := s.jobs[r.PathValue("id")]
	s.mu.Unlock()
	if j == nil {
		writeErr(w, http.StatusNotFound, "unknown job "+r.PathValue("id"))
	}
	return j
}

func (s *Server) handleJob(w http.ResponseWriter, r *http.Request) {
	if j := s.lookup(w, r); j != nil {
		writeJSON(w, http.StatusOK, j.info())
	}
}

// handleTrace streams the job's JSONL trace. The response is chunked:
// lines are flushed as the engine emits them, and the stream terminates
// with the flow_end record once the job reaches a terminal state.
func (s *Server) handleTrace(w http.ResponseWriter, r *http.Request) {
	j := s.lookup(w, r)
	if j == nil {
		return
	}
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	fl, _ := w.(http.Flusher)
	if fl != nil {
		fl.Flush()
	}
	stop := context.AfterFunc(r.Context(), j.hub.wake)
	defer stop()
	for i := 0; ; i++ {
		line, ok := j.hub.next(i, r.Context())
		if !ok {
			return
		}
		if _, err := w.Write(line); err != nil {
			return
		}
		if fl != nil {
			fl.Flush()
		}
	}
}

func (s *Server) handleCancel(w http.ResponseWriter, r *http.Request) {
	j := s.lookup(w, r)
	if j == nil {
		return
	}
	j.requestCancel()
	writeJSON(w, http.StatusOK, j.info())
}

// --- JSON plumbing ---

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetEscapeHTML(false)
	_ = enc.Encode(v)
}

func writeErr(w http.ResponseWriter, code int, msg string) {
	writeJSON(w, code, ErrorResponse{Error: msg})
}

// bodyErrCode answers 413 for a request body over maxBody and 400 for
// any other read or decode failure.
func bodyErrCode(err error) int {
	var tooBig *http.MaxBytesError
	if errors.As(err, &tooBig) {
		return http.StatusRequestEntityTooLarge
	}
	return http.StatusBadRequest
}

// errIsCancel reports whether a run error means "the context was
// canceled" rather than a flow failure.
func errIsCancel(err error) bool {
	return errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
}
