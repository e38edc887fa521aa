package bench

import (
	"context"
	"net/http/httptest"
	"testing"

	"canary/internal/fleet"
	"canary/internal/server"
)

// TestScrapedCountersExist: every counter the fleet, chaos, serve and
// sessions experiments read exists in the /metrics page of a real daemon
// and a real router, and a name the page lacks is an error, not a zero.
func TestScrapedCountersExist(t *testing.T) {
	srv, err := server.New(server.Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Shutdown(context.Background())
	worker := httptest.NewServer(srv.Handler())
	defer worker.Close()
	rt, err := fleet.NewRouter(fleet.RouterConfig{Join: []string{worker.URL}, Self: "http://router.invalid"})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	router := httptest.NewServer(rt.Handler())
	defer router.Close()

	names := append([]string(nil), workerCounters...)
	for _, want := range []map[string]uint64{serveCounters(0), sessionCounters(0, 0)} {
		for n := range want {
			names = append(names, n)
		}
	}
	if _, err := scrapeCounters(worker.URL, names...); err != nil {
		t.Errorf("canaryd: %v", err)
	}
	if _, err := scrapeRouterStats(router.URL); err != nil {
		t.Errorf("canary-router: %v", err)
	}
	if _, err := scrapeCounters(worker.URL, "canaryd_no_such_counter_total"); err == nil {
		t.Error("a counter missing from /metrics scraped without error")
	}
}
