package distrun_test

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"testing"

	"reskit/internal/distrun"
	"reskit/internal/httpd"
)

// fuzzJobs is the job count of the fuzzed coordinator: small, so random
// indices land both inside and outside [0, fuzzJobs).
const fuzzJobs = 4

// fuzzPayloadCheck accepts only the 8-byte payload job i computes, so a
// recorded payload that the check would refuse is visible after the run.
func fuzzPayloadCheck(job int, payload []byte) error {
	if len(payload) != 8 || binary.LittleEndian.Uint64(payload) != uint64(job)*7+1 {
		return fmt.Errorf("bad payload for job %d", job)
	}
	return nil
}

// FuzzCoordinatorRequests posts arbitrary bodies to the lease, heartbeat
// and result endpoints of a coordinator that has one lease out. No body
// may panic the coordinator or draw a status other than 200, 400, 405,
// 409 or 413, and none may make the ledger hold a payload the run's
// check refuses or count more jobs done than the run has.
func FuzzCoordinatorRequests(f *testing.F) {
	id := distrun.RunID{Fingerprint: httpd.Hex64(testFP), Seed: httpd.Hex64(testSeed), NumJobs: fuzzJobs}
	good := make([]byte, 8)
	binary.LittleEndian.PutUint64(good, 2*7+1)
	seed := func(endpoint uint8, post bool, v any) {
		body, err := json.Marshal(v)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(endpoint, post, body)
	}
	seed(0, true, distrun.LeaseRequest{RunID: id, Worker: "w"})
	seed(1, true, distrun.HeartbeatRequest{Worker: "w", Lease: 1})
	seed(2, true, distrun.ResultRequest{RunID: id, Worker: "w", Lease: 1,
		Results: []distrun.JobResultWire{{Job: 2, Payload: good}, {Job: 3, Payload: []byte("junk")}},
		Failed:  []distrun.JobFailureWire{{Job: 0, Attempts: 2, Error: "boom"}}})
	seed(2, true, distrun.ResultRequest{RunID: id, Results: []distrun.JobResultWire{{Job: fuzzJobs, Payload: good}}})
	seed(2, true, distrun.ResultRequest{RunID: id, Failed: []distrun.JobFailureWire{{Job: -1}}})
	seed(0, true, distrun.LeaseRequest{RunID: distrun.RunID{Fingerprint: 1, NumJobs: fuzzJobs}})
	f.Add(uint8(2), true, []byte(`{"fingerprint":12,"results":[{"job":1}]}`))
	f.Add(uint8(1), false, []byte{})
	f.Add(uint8(0), true, []byte("{"))

	paths := []string{distrun.PathLease, distrun.PathHeartbeat, distrun.PathResult}
	f.Fuzz(func(t *testing.T, endpoint uint8, post bool, body []byte) {
		c, err := distrun.NewCoordinator(distrun.CoordinatorConfig{
			NumJobs: fuzzJobs, Seed: testSeed, Fingerprint: testFP, Check: fuzzPayloadCheck,
		})
		if err != nil {
			t.Fatal(err)
		}
		h := c.Handler()
		serve := func(method, path string, body []byte) int {
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, httptest.NewRequest(method, path, bytes.NewReader(body)))
			return rec.Code
		}
		lease, err := json.Marshal(distrun.LeaseRequest{RunID: id, Worker: "w"})
		if err != nil {
			t.Fatal(err)
		}
		if code := serve(http.MethodPost, distrun.PathLease, lease); code != http.StatusOK {
			t.Fatalf("valid lease request: status %d", code)
		}

		method := http.MethodPost
		if !post {
			method = http.MethodGet
		}
		switch code := serve(method, paths[int(endpoint)%len(paths)], body); code {
		case http.StatusOK, http.StatusBadRequest, http.StatusMethodNotAllowed,
			http.StatusConflict, http.StatusRequestEntityTooLarge:
		default:
			t.Fatalf("%s %s %q: status %d", method, paths[int(endpoint)%len(paths)], body, code)
		}

		if done := c.Stats().Done; done > fuzzJobs {
			t.Fatalf("Stats().Done = %d > %d jobs", done, fuzzJobs)
		}
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		res, _ := c.Wait(ctx) // a cancelled Wait returns the ledger as it stands
		if len(res.Payloads) != fuzzJobs {
			t.Fatalf("result holds %d payload slots, want %d", len(res.Payloads), fuzzJobs)
		}
		for job, p := range res.Payloads {
			if p != nil {
				if err := fuzzPayloadCheck(job, p); err != nil {
					t.Fatalf("ledger recorded a payload its check refuses: %v", err)
				}
			}
		}
	})
}
