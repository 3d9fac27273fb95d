package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"strings"
	"testing"

	"streamsched/internal/sdf"
)

// reencodeProfile writes a normalised request back out in a different
// surface form: fields in reverse order with extra whitespace, the graph
// re-serialised and indented, every default explicit, and the capacity
// grid reversed, duplicated and offset within its blocks. It must key
// exactly like the request it came from.
func reencodeProfile(t *testing.T, r *ProfileRequest, g *sdf.Graph) []byte {
	t.Helper()
	var compact, graph bytes.Buffer
	if err := g.WriteJSON(&compact); err != nil {
		t.Fatalf("write graph: %v", err)
	}
	if err := json.Indent(&graph, compact.Bytes(), "\t ", "   "); err != nil {
		t.Fatalf("indent graph: %v", err)
	}
	var caps []string
	for i := len(r.Caps) - 1; i >= 0; i-- {
		c := r.Caps[i]
		caps = append(caps, fmt.Sprint(c))
		if c <= math.MaxInt64-(r.B-1) {
			caps = append(caps, fmt.Sprint(c+r.B-1)) // rounds down to c
		}
	}
	sched, err := json.Marshal(r.Scheduler)
	if err != nil {
		t.Fatalf("scheduler name: %v", err)
	}
	return []byte(fmt.Sprintf("\n{ \"caps\" : [%s],\n\t\"measure\":%d, \"warm\" :%d,\"scale\": %d,\r\n"+
		"\"scheduler\":%s , \"b\":%d,\"m\":  %d,\n\"graph\":\n%s}\n",
		strings.Join(caps, " , "), r.Measure, r.Warm, r.Scale, sched, r.B, r.M, graph.String()))
}

// FuzzProfileRequestKey checks the daemon's profile-request
// canonicalisation: parsing, normalising and keying any body never
// panics, and an accepted request re-encoded in another surface form
// (field order, whitespace, explicit defaults, unsorted and unaligned
// capacities) addresses the same cache entry.
func FuzzProfileRequestKey(f *testing.F) {
	graph := `{"name":"p","nodes":[{"name":"src","state":0},{"name":"f","state":40},{"name":"sink","state":0}],` +
		`"edges":[{"from":0,"to":1,"out":2,"in":1},{"from":1,"to":2,"out":1,"in":2}]}`
	for _, seed := range []string{
		`{"graph":` + graph + `,"m":512}`,
		`{"graph":` + graph + `,"m":512,"b":16,"scheduler":"partitioned","scale":4,"warm":1024,"measure":4096}`,
		`{"measure":100,"caps":[4096,16,1000,16,64],"graph":` + graph + `,"m":256,"b":8,"scheduler":"scaled","scale":3}`,
		`{"graph":` + graph + `,"m":64,"b":9223372036854775807,"caps":[9223372036854775807]}`,
		`{"graph":` + graph + `,"m":64,"caps":[9223372036854775800,16]}`,
		`{"graph":` + graph + `,"m":512,"scheduler":"kohli","warm":-1}`,
		`{"graph":` + graph + `,"m":512,"caps":[3]}`,
		`{"graph":{"nodes":[{"name":"a","state":1}]},"m":1,"scheduler":"demand"}`,
		`{"graph":` + graph + `,"m":512,"blocksize":16}`,
		`{"graph":null,"m":512}`,
		`{nope`,
	} {
		f.Add([]byte(seed))
	}
	const engine = "fuzz"
	f.Fuzz(func(t *testing.T, body []byte) {
		var req ProfileRequest
		if err := unmarshalStrict(body, &req); err != nil {
			return
		}
		g, err := req.normalize()
		if err != nil {
			return
		}
		key := req.key(engine, g)
		re := reencodeProfile(t, &req, g)
		var again ProfileRequest
		if err := unmarshalStrict(re, &again); err != nil {
			t.Fatalf("re-encoded body rejected: %v\n%s", err, re)
		}
		g2, err := again.normalize()
		if err != nil {
			t.Fatalf("re-encoded request invalid: %v\n%s", err, re)
		}
		if key2 := again.key(engine, g2); key2 != key {
			t.Fatalf("re-encoding changed the key: %s vs %s\n%s\n%s", key, key2, body, re)
		}
	})
}
