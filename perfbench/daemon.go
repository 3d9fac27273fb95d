package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"streamsched/internal/obs"
	"streamsched/internal/server"
)

// daemon is the streamschedd core behind a loopback http.Server, built
// the way cmd/streamschedd builds it with its default flags (a live obs
// registry, -jobs 0, -profilejobs 1, -decodejobs 1, -timeout 60s,
// -maxbody 8m). Only the cache budget is chosen per workload.
type daemon struct {
	srv    *server.Server
	reg    *obs.Registry
	hs     *http.Server
	base   string
	client *http.Client
	served chan error

	// handler times each request's Handler().ServeHTTP call when the
	// daemon is traced, keyed by the request's sequence header.
	handler sync.Map
	seq     atomic.Int64
}

// seqHeader tags traced requests so the handler span can be matched to
// the client's end-to-end time.
const seqHeader = "X-Perfbench-Seq"

// startDaemon boots a daemon. With traced set, the server handler is
// wrapped in a span recorder.
func startDaemon(cacheBytes int64, traced bool) (*daemon, error) {
	reg := obs.NewRegistry()
	srv := server.New(server.Config{
		CacheBytes:   cacheBytes,
		Jobs:         0,
		ProfileJobs:  1,
		DecodeJobs:   1,
		Timeout:      60 * time.Second,
		MaxBodyBytes: 8 << 20,
		Metrics:      reg,
	})
	d := &daemon{srv: srv, reg: reg, served: make(chan error, 1)}
	h := srv.Handler()
	if traced {
		inner := h
		h = http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			start := time.Now()
			inner.ServeHTTP(w, r)
			if seq := r.Header.Get(seqHeader); seq != "" {
				d.handler.Store(seq, time.Since(start))
			}
		})
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("listen: %w", err)
	}
	d.hs = &http.Server{Handler: h, ReadHeaderTimeout: 10 * time.Second}
	d.base = "http://" + ln.Addr().String()
	conns := runtime.GOMAXPROCS(0)
	d.client = &http.Client{Transport: &http.Transport{
		MaxConnsPerHost:     conns,
		MaxIdleConnsPerHost: conns,
		DisableCompression:  true,
	}}
	go func() { d.served <- d.hs.Serve(ln) }()
	resp, err := d.client.Get(d.base + "/healthz")
	if err != nil {
		d.close()
		return nil, fmt.Errorf("healthz: %w", err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		d.close()
		return nil, fmt.Errorf("healthz: status %d", resp.StatusCode)
	}
	return d, nil
}

// close shuts the server down and waits for it to stop serving.
func (d *daemon) close() error {
	ctx, cancel := context.WithTimeout(context.Background(), 70*time.Second)
	defer cancel()
	err := d.hs.Shutdown(ctx)
	if serr := <-d.served; !errors.Is(serr, http.ErrServerClosed) {
		err = errors.Join(err, serr)
	}
	d.client.CloseIdleConnections()
	return err
}

// reply is one served response.
type reply struct {
	status  int
	body    []byte
	cache   string // X-Streamsched-Cache
	key     string // X-Streamsched-Key
	latency time.Duration
	// handler is the server handler's span; set on a traced daemon.
	handler time.Duration
	traced  bool
}

// post sends one request and times it from just before the request is
// written to just after the whole body is read.
func (d *daemon) post(path string, body []byte, traced bool) (reply, error) {
	req, err := http.NewRequest(http.MethodPost, d.base+path, bytes.NewReader(body))
	if err != nil {
		return reply{}, err
	}
	req.Header.Set("Content-Type", "application/json")
	var seq string
	if traced {
		seq = strconv.FormatInt(d.seq.Add(1), 10)
		req.Header.Set(seqHeader, seq)
	}
	start := time.Now()
	resp, err := d.client.Do(req)
	if err != nil {
		return reply{}, err
	}
	data, err := io.ReadAll(resp.Body)
	lat := time.Since(start)
	resp.Body.Close()
	if err != nil {
		return reply{}, err
	}
	r := reply{
		status:  resp.StatusCode,
		body:    data,
		cache:   resp.Header.Get("X-Streamsched-Cache"),
		key:     resp.Header.Get("X-Streamsched-Key"),
		latency: lat,
	}
	if traced {
		if v, ok := d.handler.LoadAndDelete(seq); ok {
			r.handler, r.traced = v.(time.Duration), true
		}
	}
	return r, nil
}

// counter reads one counter of the daemon's registry.
func (d *daemon) counter(name string) int64 { return d.reg.Snapshot().Counter(name) }
