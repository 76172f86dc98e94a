package main

import (
	"context"
	"errors"
	"fmt"
	"path/filepath"
	"time"

	"repro/internal/serve/stream"
)

// Topologies of real processes: one cmd/serve, or cmd/router in front of
// several. The binaries run with their default flags apart from
// addresses, -model/-embed/-backend and the router's -seed, because the
// defaults are what users get.

const (
	modelName   = "arch1"
	startTries  = 5
	routerSeed  = "1"
	closeBudget = 2 * time.Second
)

// proc is one spawned cmd/serve or cmd/router with its two front ends.
type proc struct {
	*child
	httpURL string
	tcpAddr string
}

// startProc spawns bin on two free loopback ports and waits until every
// probe succeeds. A lost port race (the child exits on bind failure) is
// retried with fresh ports.
func startProc(e *env, bin, logName string, args []string, probes func(p *proc) []func() error) (*proc, error) {
	var lastErr error
	for try := 0; try < startTries; try++ {
		httpAddr, err := freeAddr()
		if err != nil {
			return nil, err
		}
		tcpAddr, err := freeAddr()
		if err != nil {
			return nil, err
		}
		all := append([]string{"-addr", httpAddr, "-listen-tcp", tcpAddr}, args...)
		c, err := startChild(logName, bin, filepath.Join(e.outDir, logName+".log"), all...)
		if err != nil {
			return nil, err
		}
		p := &proc{child: c, httpURL: "http://" + httpAddr, tcpAddr: tcpAddr}
		for _, probe := range probes(p) {
			if err = waitReady(c, readyTimeout, probe); err != nil {
				break
			}
		}
		if err == nil {
			return p, nil
		}
		c.stop(stopGrace)
		if !errors.Is(err, errChildExited) {
			return nil, err
		}
		lastErr = err
	}
	return nil, fmt.Errorf("%s: gave up after %d attempts: %w", logName, startTries, lastErr)
}

// startServe spawns cmd/serve with the model bundle and waits until both
// its front ends answer.
func startServe(e *env, logName, bundle string, extra ...string) (*proc, error) {
	args := append([]string{"-model", modelName + "=" + bundle}, extra...)
	return startProc(e, e.serveBin, logName, args, func(p *proc) []func() error {
		return []func() error{httpOK(p.httpURL+"/healthz", `"ok"`), tcpOpen(p.tcpAddr)}
	})
}

// startRouter spawns cmd/router over the given backends and waits until
// its merged view lists the model, i.e. until a request would be routed.
func startRouter(e *env, logName string, backends []*proc) (*proc, error) {
	args := []string{"-seed", routerSeed}
	for _, b := range backends {
		args = append(args, "-backend", b.tcpAddr+"="+b.httpURL)
	}
	return startProc(e, e.routeBin, logName, args, func(p *proc) []func() error {
		return []func() error{
			httpOK(p.httpURL+"/healthz", `"ok"`),
			httpOK(p.httpURL+"/v1/models", `"`+modelName+`"`),
			tcpOpen(p.tcpAddr),
		}
	})
}

// dialClients opens n RPS2 connections to addr.
func dialClients(addr string, n int) ([]*stream.Client, error) {
	clients := make([]*stream.Client, 0, n)
	for i := 0; i < n; i++ {
		cl, err := stream.Dial(addr)
		if err != nil {
			closeClients(clients)
			return nil, fmt.Errorf("dial %s: %w", addr, err)
		}
		clients = append(clients, cl)
	}
	return clients, nil
}

func closeClients(clients []*stream.Client) {
	ctx, cancel := context.WithTimeout(context.Background(), closeBudget)
	defer cancel()
	for _, cl := range clients {
		_ = cl.Close(ctx) // the process behind it is stopped next either way
	}
}
