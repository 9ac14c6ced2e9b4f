package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"time"

	"repro/internal/cloud"
	"repro/internal/obs"
	"repro/internal/serve"
)

// server is one in-process cloudmatcher: the real cloud.Server handler
// behind a loopback TCP listener, wired like cmd/cloudmatcher wires it
// (pool and engine sizes at their defaults).
type server struct {
	reg     *obs.Registry // nil on the untraced server
	corpus  *serve.Corpus
	entry   *serve.Entry
	corpora *serve.Registry
	mm      *cloud.Metamanager
	handler http.Handler
	httpSrv *http.Server
	url     string
	served  chan error
}

// startServer builds the corpus and starts serving. A non-nil reg turns
// the program's own instrumentation on (the traced server).
func startServer(p params, reg *obs.Registry) (*server, error) {
	opts := []serve.CorpusOption{serve.WithMinOverlap(p.MinOverlap), serve.WithLimit(p.Limit)}
	cfg := cloud.EngineConfig{}
	var sopts []cloud.ServerOption
	if reg != nil {
		opts = append(opts, serve.WithMetrics(reg))
		cfg.Metrics = reg
		sopts = append(sopts, cloud.WithMetrics(reg))
	}
	s := &server{reg: reg, corpus: serve.NewCorpus(opts...), corpora: serve.NewRegistry()}
	if err := s.corpora.Register(corpusName, s.corpus, serve.NewPool(s.corpus, 0, 0)); err != nil {
		return nil, err
	}
	s.entry, _ = s.corpora.Get(corpusName)
	s.mm = cloud.NewMetamanager(cloud.NewRegistry(), cfg)
	s.handler = cloud.NewServer(s.mm, append(sopts, cloud.WithCorpora(s.corpora))...).Handler()

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		s.corpora.Close()
		s.mm.Close()
		return nil, err
	}
	s.url = "http://" + ln.Addr().String()
	s.httpSrv = &http.Server{Handler: s.handler}
	s.served = make(chan error, 1)
	go func() { s.served <- s.httpSrv.Serve(ln) }()
	return s, nil
}

// close stops the listener, waits for the serve loop, and stops the pool
// and engine workers.
func (s *server) close() error {
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	err := s.httpSrv.Shutdown(ctx)
	if serr := <-s.served; serr != nil && !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = serr
	}
	s.corpora.Close()
	s.mm.Close()
	return err
}

// requestTimeout bounds one request; a request that hits it failed.
const requestTimeout = 10 * time.Second

// client is the load generator's HTTP side: keep-alive connections to
// one server, at most conns of them.
type client struct {
	hc   *http.Client
	base string
}

func newClient(base string, conns int) *client {
	tr := &http.Transport{
		MaxIdleConns:        conns,
		MaxIdleConnsPerHost: conns,
		MaxConnsPerHost:     conns,
		DisableCompression:  true,
	}
	return &client{hc: &http.Client{Transport: tr, Timeout: requestTimeout}, base: base}
}

func (c *client) close() { c.hc.CloseIdleConnections() }

// post sends one JSON body and reads the whole reply into buf.
func (c *client) post(path string, body []byte, buf *bytes.Buffer) (int, error) {
	req, err := http.NewRequest(http.MethodPost, c.base+path, bytes.NewReader(body))
	if err != nil {
		return 0, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := c.hc.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	buf.Reset()
	if _, err := io.Copy(buf, resp.Body); err != nil {
		return resp.StatusCode, fmt.Errorf("read body: %w", err)
	}
	return resp.StatusCode, nil
}
