// Service mode: the canaryd scheduler driven in-process. The same program
// is submitted twice — the cold submission runs the full pipeline, the
// warm one is answered from the content-addressed result store with the
// exact bytes of the cold run (the determinism contract makes the cached
// bytes safe to replay). The program itself is the session-store recycling
// bug in program.cn; submitting it over HTTP instead works identically
// (see "Running as a service" in the README; `make serve-smoke` drives a
// canaryd built from the tree that way).
//
// Run with: go run ./examples/service
package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"log"

	"canary"
	"canary/internal/server"
)

//go:embed program.cn
var program string

func main() {
	srv, err := server.New(server.Config{MaxConcurrent: 2})
	if err != nil {
		log.Fatal(err)
	}

	submit := func(label string) *server.Job {
		job, err := srv.Submit(program, canary.DefaultOptions(), 0)
		if err != nil {
			log.Fatal(err)
		}
		<-job.Done()
		buf, cached, errMsg := job.Result()
		if errMsg != "" {
			log.Fatalf("%s: %s", label, errMsg)
		}
		var res canary.Result
		if err := json.Unmarshal(buf, &res); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%s submission %s (key %s): %d report(s), cached=%v\n",
			label, job.ID(), job.Key(), len(res.Reports), cached)
		for _, r := range res.Reports {
			fmt.Println("   ", r)
		}
		return job
	}

	cold := submit("cold")
	warm := submit("warm")

	coldBuf, _, _ := cold.Result()
	warmBuf, _, _ := warm.Result()
	fmt.Printf("\nwarm result byte-identical to cold: %v\n", string(coldBuf) == string(warmBuf))
	hits, misses, entries := srv.CacheStats()
	fmt.Printf("content store: %d hit, %d miss, %d entry\n", hits, misses, entries)
}
