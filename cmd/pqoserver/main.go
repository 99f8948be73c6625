// Command pqoserver is the HTTP plan-cache service from internal/server over
// two demonstration templates on a TPC-DS-shaped system.
//
// The heavy lifting — concurrent SCR caches, request timeouts, metrics,
// snapshots, graceful shutdown — lives in internal/server; this binary
// only wires templates and flags.
//
// Run with:  go run ./cmd/pqoserver [-addr :8080] [-snapshot dir]
// Then:
//
//	curl -s localhost:8080/v1/templates
//	curl -s -X POST localhost:8080/v1/plan \
//	     -d '{"template":"dashboard","sVector":[0.01,0.2]}'
//	curl -s localhost:8080/v1/stats
//	curl -s localhost:8080/v1/metrics
//	curl -s -X POST localhost:8080/v1/snapshot
//	curl -s -X POST localhost:8080/v1/admin/stats -d '{"resampleSeed":7}'
//	curl -s localhost:8080/v1/admin/epochs
//	curl -s localhost:8080/v1/openapi.json
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/server"
	"repro/pqo"
)

func main() {
	addr := flag.String("addr", ":8080", "listen address")
	snapshot := flag.String("snapshot", "", "directory for plan-cache snapshots (empty = disabled)")
	lambda := flag.Float64("lambda", 2, "sub-optimality bound λ")
	timeout := flag.Duration("timeout", 5*time.Second, "per-request timeout")
	flag.Parse()

	srv, err := newServer(*lambda, *snapshot, *timeout)
	if err != nil {
		log.Fatal(err)
	}

	// ListenAndServe returns as soon as Shutdown has drained the
	// listeners — before Shutdown has written snapshots — so main must
	// wait for the shutdown goroutine, not just for Serve to return.
	done := make(chan struct{})
	go func() {
		defer close(done)
		sig := make(chan os.Signal, 1)
		signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
		<-sig
		log.Print("shutting down")
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := srv.Shutdown(ctx); err != nil {
			log.Printf("shutdown: %v", err)
		}
	}()

	log.Printf("plan-cache service on %s (λ=%g)", *addr, *lambda)
	if err := srv.ListenAndServe(*addr); !errors.Is(err, http.ErrServerClosed) {
		log.Fatal(err)
	}
	<-done
}

// newServer registers two demonstration templates over a TPC-DS-like
// system; internal/server restores snapshots when present.
func newServer(lambda float64, snapshot string, timeout time.Duration) (*server.Server, error) {
	sys := pqo.NewSystem(pqo.TPCDS(0.1), 21)
	defs := map[string]string{
		"dashboard": `SELECT g, COUNT(*) FROM store_sales, date_dim
		              WHERE store_sales.ss_sold_date_sk = date_dim.d_date_sk
		                AND date_dim.d_year <= ?0
		                AND store_sales.ss_sales_price >= ?1
		              GROUP BY g`,
		"item_drill": `SELECT * FROM store_sales, item
		               WHERE store_sales.ss_item_sk = item.i_item_sk
		                 AND item.i_current_price <= ?0
		                 AND store_sales.ss_quantity >= ?1
		                 AND store_sales.ss_net_profit >= ?2`,
	}
	srv := server.New(server.Config{
		RequestTimeout: timeout,
		SnapshotDir:    snapshot,
		Logger:         log.Default(),
	})
	for name, sql := range defs {
		tpl, err := pqo.ParseTemplate(name, sql, sys.Cat)
		if err != nil {
			return nil, fmt.Errorf("template %s: %w", name, err)
		}
		eng, err := sys.EngineFor(tpl)
		if err != nil {
			return nil, err
		}
		scr, err := pqo.New(eng, pqo.WithLambda(lambda), pqo.WithViolationDetection(0.01))
		if err != nil {
			return nil, err
		}
		if err := srv.Register(name, tpl.SQL(), eng, scr); err != nil {
			return nil, err
		}
	}
	// Attaching the system enables the /v1/admin endpoints: online
	// statistics refresh with epoch-based background revalidation.
	srv.SetSystem(sys)
	return srv, nil
}
