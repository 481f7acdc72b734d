package advisor

import (
	"encoding/json"
	"reflect"
	"testing"

	"reskit/internal/ckpt"
)

// FuzzDecodeQuery hammers the request decoder: no input may panic, any
// input that decodes must fingerprint identically to the canonical
// ckpt.Fingerprint rendering (the content address stays reproducible
// for arbitrary field values), and a decoded query must survive a
// marshal/unmarshal round trip unchanged — the wire form is lossless.
//
// It is also the differential target of the wire codecs: for every
// input and each of the five wire types, UnmarshalJSON and
// json.Unmarshal on the type's method-free shadow must agree on the
// error and the value, from a zero and from a filled target, and a
// value that decodes must re-encode to valid JSON that decodes back to
// it.
func FuzzDecodeQuery(f *testing.F) {
	f.Add([]byte(`{"mode":"dynamic","r":10,"task":"exp:0.3","ckpt":"uniform:0.3,0.7","work":2.5}`))
	f.Add([]byte(`{"mode":"preempt","r":10,"ckpt":"exp:0.5@[1,5]"}`))
	f.Add([]byte(`{"mode":"static","r":1e300,"taskdisc":"poisson:3","ckpt":"det:1","elapsed":-1}`))
	f.Add([]byte(`{"queries":[{}]}`))
	f.Add([]byte(`{"r":"10"}`))
	f.Add([]byte(`null`))
	f.Add([]byte(``))
	f.Add([]byte(`{"mode":"?","r":1e-310,"ckpt":"\xff"}`))
	for _, c := range wireGolden() {
		data, err := c.enc()
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	// Inputs at the edges of the fast path: canonical ones that leave
	// some fields of a filled target alone, and ones only encoding/json
	// decodes (folded case, unknown keys, duplicates, null, escapes,
	// type errors, numbers out of range or outside JSON's grammar).
	for _, in := range []string{
		` { "work" : 5 , "ckpt":"det:2"} `,
		` {"answers" : [ {"error":"e","mode":"static","n_opt":3} , {"Mode":"x"} ] } `,
		`{"mode":"static","n_opt":-0,"r":-0.0e+1,"y_opt":1E-7,"method":"é"}`,
		`{"fingerprint":"0X1","has_w_int":true,"x":1e400,"gain":null}`,
		`{"queries":[],"queries":null}`,
		`{"MODE":"static","R":1}`,
		`{"mode":"static","extra":[1,{"a":2}]}`,
		`{"mode":"static","mode":"dynamic"}`,
		`{"mode":"st\u0061tic"}`,
		`{"r":"10","mode":"static"}`,
		`{"r":01}`, `{"r":1.}`, `{"r":+1}`, `{"r":.5}`, `{"r":1e}`,
		`{"mode":"static"} x`, `{"mode":"static"`, `[]`,
	} {
		f.Add([]byte(in))
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		checkWire(t, data, func() Query {
			return Query{Mode: ModeStatic, R: 1, Task: "t", TaskDisc: "d", Ckpt: "c", Work: 2, Elapsed: 3}
		})
		checkWire(t, data, func() Answer { return goldenPreempt })
		checkWire(t, data, func() BatchAnswer { return BatchAnswer{Answer: goldenDynamic, Error: "e"} })
		checkWire(t, data, func() BatchRequest { return BatchRequest{Queries: []Query{qStatic}} })
		checkWire(t, data, func() BatchResponse { return BatchResponse{Answers: []BatchAnswer{{Answer: goldenStatic}}} })

		q, err := DecodeQuery(data)
		if err != nil {
			return
		}
		if got, want := q.fingerprint(), ckpt.Fingerprint(FingerprintParts(q)...); got != want {
			t.Fatalf("fingerprint %016x != canonical %016x for %+v", got, want, q)
		}
		q.Validate() //nolint:errcheck // must not panic, outcome is free

		wire, err := json.Marshal(q)
		if err != nil {
			t.Fatalf("re-marshal of decoded query failed: %v", err)
		}
		q2, err := DecodeQuery(wire)
		if err != nil {
			t.Fatalf("round trip failed to decode: %v", err)
		}
		if q2 != q {
			t.Fatalf("round trip changed the query:\n%+v\n%+v", q, q2)
		}
	})
}

// checkWire is the differential check of one wire type on data; filled
// returns a fresh non-zero target each call.
func checkWire[T any, P wireType[T]](t *testing.T, data []byte, filled func() T) {
	t.Helper()
	for _, start := range []func() T{func() T { var zero T; return zero }, filled} {
		got, want := start(), start()
		errGot, errWant := P(&got).UnmarshalJSON(data), P(&want).unmarshalStd(data)
		if (errGot == nil) != (errWant == nil) || (errGot != nil && errGot.Error() != errWant.Error()) {
			t.Fatalf("%T: UnmarshalJSON error %v, json.Unmarshal error %v", got, errGot, errWant)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%T: UnmarshalJSON decoded\n%+v\njson.Unmarshal decoded\n%+v", got, got, want)
		}
	}
	var v T
	if P(&v).UnmarshalJSON(data) != nil {
		return
	}
	wire, err := P(&v).MarshalJSON()
	if err != nil {
		t.Fatalf("%T: re-encoding %+v: %v", v, v, err)
	}
	if !json.Valid(wire) {
		t.Fatalf("%T: re-encoded %+v as invalid JSON %s", v, v, wire)
	}
	var back T
	if err := P(&back).UnmarshalJSON(wire); err != nil || !reflect.DeepEqual(back, v) {
		t.Fatalf("%T: round trip through %s gave %+v, %v; want %+v", v, wire, back, err, v)
	}
}
