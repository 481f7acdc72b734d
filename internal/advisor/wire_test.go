package advisor

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"reskit/internal/httpd"
)

// Wire values of the golden fixtures: one answer per mode, a batch
// response with an inline error, and a batch request. The numbers are
// answers the advisor gave; here they are only bytes on the wire.
var (
	goldenDynamic = Answer{Mode: ModeDynamic, Fingerprint: 0xb1e7118a58514594, R: 10,
		Work: 2.5, Elapsed: 2.5, WInt: 5.005461952591904, HasWInt: true}
	goldenStatic = Answer{Mode: ModeStatic, Fingerprint: 0x959f0ef3c96c6eda, R: 100,
		NOpt: 19, ENOpt: 91.66791283819693, YOpt: 18.74924140121354}
	goldenPreempt = Answer{Mode: ModePreempt, Fingerprint: 0x0568be4420c5f424, R: 10,
		X: 3.8176615954564017, ExpectedWork: 5.4023208301832595, Method: "exponential-lambertw",
		Interior: true, PessX: 5, PessWork: 5, Gain: 1.0804641660366519}
	goldenResponse = BatchResponse{Answers: []BatchAnswer{
		{Answer: goldenPreempt},
		{Error: `advisor: unknown mode "bad" (want preempt, static or dynamic)`},
		{Answer: goldenDynamic},
	}}
	goldenRequest = BatchRequest{Queries: []Query{
		qPreempt, qStatic, qStaticD, qDynamic,
		{Mode: ModeDynamic, R: 29, Task: "norm:3,0.5@[0,inf]", Ckpt: "norm:5,0.4@[0,inf]", Work: 12.25, Elapsed: 19.5},
	}}
)

// wireCase is one fixture: the file, the value it holds, and the three
// ways to decode it.
type wireCase struct {
	file string
	want any
	// enc is the type's MarshalJSON; fast its fast path alone, method
	// its UnmarshalJSON, std json.Unmarshal on the shadow type. Each
	// decoder returns the decoded value.
	enc    func() ([]byte, error)
	fast   func([]byte) (any, bool)
	method func([]byte) (any, error)
	std    func([]byte) (any, error)
}

// wireType is what the five wire types share.
type wireType[T any] interface {
	*T
	json.Marshaler
	json.Unmarshaler
	unmarshalStd([]byte) error
}

func newWireCase[T any, P wireType[T]](file string, want T, fast func([]byte, *T) bool) wireCase {
	return wireCase{
		file: file,
		want: want,
		enc:  func() ([]byte, error) { return P(&want).MarshalJSON() },
		fast: func(data []byte) (any, bool) {
			var v T
			ok := fast(data, &v)
			return v, ok
		},
		method: func(data []byte) (any, error) {
			var v T
			err := P(&v).UnmarshalJSON(data)
			return v, err
		},
		std: func(data []byte) (any, error) {
			var v T
			err := P(&v).unmarshalStd(data)
			return v, err
		},
	}
}

func wireGolden() []wireCase {
	return []wireCase{
		newWireCase("answer_dynamic.json", goldenDynamic, decodeObject[Answer]),
		newWireCase("answer_static.json", goldenStatic, decodeObject[Answer]),
		newWireCase("answer_preempt.json", goldenPreempt, decodeObject[Answer]),
		newWireCase("batch_response.json", goldenResponse, func(d []byte, v *BatchResponse) bool { return decodeList(d, "answers", &v.Answers) }),
		newWireCase("batch_request.json", goldenRequest, func(d []byte, v *BatchRequest) bool { return decodeList(d, "queries", &v.Queries) }),
	}
}

// TestWireGolden: the encoders reproduce the fixtures byte for byte, and
// the fast path, UnmarshalJSON and json.Unmarshal on the shadow types
// all decode them to the values they hold. The batch response's error
// text is quoted, so its bytes leave the fast path's subset.
func TestWireGolden(t *testing.T) {
	for _, c := range wireGolden() {
		data, err := os.ReadFile(filepath.Join("testdata", c.file))
		if err != nil {
			t.Fatal(err)
		}
		got, err := c.enc()
		if err != nil {
			t.Fatalf("%s: encode: %v", c.file, err)
		}
		if !bytes.Equal(got, data) {
			t.Errorf("%s: encoder wrote\n%s\nwant\n%s", c.file, got, data)
		}
		fast, ok := c.fast(data)
		if canonical := c.file != "batch_response.json"; ok != canonical {
			t.Errorf("%s: fast path took it: %v, want %v", c.file, ok, canonical)
		}
		if ok && !reflect.DeepEqual(fast, c.want) {
			t.Errorf("%s: fast path decoded %+v, want %+v", c.file, fast, c.want)
		}
		for name, decode := range map[string]func([]byte) (any, error){"UnmarshalJSON": c.method, "json.Unmarshal": c.std} {
			v, err := decode(data)
			if err != nil || !reflect.DeepEqual(v, c.want) {
				t.Errorf("%s: %s decoded %+v, %v; want %+v", c.file, name, v, err, c.want)
			}
		}
	}
}

// TestAnswerShapes: an answer of each mode is what encoding/json writes
// for a struct of that mode's keys alone.
func TestAnswerShapes(t *testing.T) {
	type dynamicShape struct {
		Mode          string      `json:"mode"`
		Fingerprint   httpd.Hex64 `json:"fingerprint"`
		R             float64     `json:"r"`
		CheckpointNow bool        `json:"checkpoint_now"`
		Work          float64     `json:"work"`
		Elapsed       float64     `json:"elapsed"`
		WInt          float64     `json:"w_int"`
		HasWInt       bool        `json:"has_w_int"`
	}
	type staticShape struct {
		Mode        string      `json:"mode"`
		Fingerprint httpd.Hex64 `json:"fingerprint"`
		R           float64     `json:"r"`
		NOpt        int         `json:"n_opt"`
		ENOpt       float64     `json:"e_n_opt"`
		YOpt        float64     `json:"y_opt"`
	}
	type preemptShape struct {
		Mode         string      `json:"mode"`
		Fingerprint  httpd.Hex64 `json:"fingerprint"`
		R            float64     `json:"r"`
		X            float64     `json:"x"`
		ExpectedWork float64     `json:"expected_work"`
		Method       string      `json:"method,omitempty"`
		Interior     bool        `json:"interior"`
		PessX        float64     `json:"pessimistic_x"`
		PessWork     float64     `json:"pessimistic_work"`
		Gain         float64     `json:"gain"`
	}
	a := New(Options{})
	for _, q := range []Query{qPreempt, qStatic, qStaticD, qDynamic} {
		ans := mustAdvise(t, a, q)
		var shape any
		switch ans.Mode {
		case ModeDynamic:
			shape = dynamicShape{ans.Mode, ans.Fingerprint, ans.R, ans.CheckpointNow, ans.Work, ans.Elapsed, ans.WInt, ans.HasWInt}
		case ModeStatic:
			shape = staticShape{ans.Mode, ans.Fingerprint, ans.R, ans.NOpt, ans.ENOpt, ans.YOpt}
		case ModePreempt:
			shape = preemptShape{ans.Mode, ans.Fingerprint, ans.R, ans.X, ans.ExpectedWork, ans.Method, ans.Interior, ans.PessX, ans.PessWork, ans.Gain}
		}
		got, err := ans.MarshalJSON()
		if err != nil {
			t.Fatal(err)
		}
		if want := stdEncode(t, shape); !bytes.Equal(got, want) {
			t.Errorf("%s answer:\n%s\nwant\n%s", ans.Mode, got, want)
		}
	}
	if got, err := (BatchAnswer{Error: "x"}).MarshalJSON(); err != nil || string(got) != `{"error":"x"}` {
		t.Errorf("failed item encodes as %s, %v", got, err)
	}
}

// stdEncode is encoding/json's output for v with HTML escaping off, as
// the server wrote it before the wire types had encoders.
func stdEncode(t *testing.T, v any) []byte {
	t.Helper()
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetEscapeHTML(false)
	if err := enc.Encode(v); err != nil {
		t.Fatal(err)
	}
	return bytes.TrimSuffix(buf.Bytes(), []byte("\n"))
}

// TestEncodeMatchesEncodingJSON: floats and strings at encoding/json's
// edges (the exponent cut-offs, negative zero, the escapes, invalid
// UTF-8, U+2028) encode byte for byte as encoding/json encodes them.
func TestEncodeMatchesEncodingJSON(t *testing.T) {
	floats := []float64{0, math.Copysign(0, -1), 1, -1, 0.1, 1e-6, 9.999999e-7, 1e-7, 1.5e-300,
		5e-324, 1e20, 1e21, 123456789012345680000, math.MaxFloat64, -math.SmallestNonzeroFloat64, 1e-10, 2.5e-9}
	strs := []string{"", "plain", `q"uote`, `back\slash`, "ctl\x00\x01\b\f\n\r\t\x1f\x7f", "<html>&amp;",
		"bad\xffutf8\xc3", "line\u2028para\u2029", "é€😀", "norm:3,0.5@[0,inf]"}
	for _, f := range floats {
		for _, s := range strs {
			q := Query{Mode: s, R: f, Task: s, Ckpt: s, Work: f, Elapsed: -f}
			got, err := q.MarshalJSON()
			if err != nil {
				t.Fatal(err)
			}
			if want := stdEncode(t, queryFields(q)); !bytes.Equal(got, want) {
				t.Errorf("query %+v:\n%s\nwant\n%s", q, got, want)
			}
		}
	}
}

// TestEncodeRefusesNonFinite: NaN and the infinities are refused, as
// encoding/json refuses them, not written as broken JSON.
func TestEncodeRefusesNonFinite(t *testing.T) {
	for _, f := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		if b, err := (Answer{Mode: ModePreempt, Gain: f}).MarshalJSON(); err == nil {
			t.Errorf("gain %v encoded as %s", f, b)
		}
		if b, err := (BatchResponse{Answers: []BatchAnswer{{Answer: Answer{Mode: ModeStatic, YOpt: f}}}}).MarshalJSON(); err == nil {
			t.Errorf("batch with y_opt %v encoded as %s", f, b)
		}
		if b, err := (Query{Mode: ModeDynamic, Work: f}).MarshalJSON(); err == nil {
			t.Errorf("query with work %v encoded as %s", f, b)
		}
	}
}

// TestDecodeErrorTexts: a type error in a request reads as it did
// when encoding/json decoded the plain types, behind the decoders' own
// prefixes. FuzzDecodeQuery's seeds hold the other inputs that leave
// the fast path.
func TestDecodeErrorTexts(t *testing.T) {
	_, err := DecodeQuery([]byte(`{"r":"10"}`))
	if want := "advisor: bad query JSON: json: cannot unmarshal string into Go struct field Query.r of type float64"; err == nil || err.Error() != want {
		t.Errorf("type error reads %v, want %s", err, want)
	}
	_, err = DecodeBatch([]byte(`{"queries":[{"work":true}]}`))
	if want := "advisor: bad batch JSON: json: cannot unmarshal bool into Go struct field Query.queries.work of type float64"; err == nil || err.Error() != want {
		t.Errorf("batch type error reads %v, want %s", err, want)
	}
}

// BenchmarkBatchWire times the four codec steps of one 1 000-query
// batch: the client's encode, the server's decode, the server's encode
// and the client's decode.
func BenchmarkBatchWire(b *testing.B) {
	a := New(Options{})
	req := BatchRequest{Queries: make([]Query, 1000)}
	resp := BatchResponse{Answers: make([]BatchAnswer, 1000)}
	for i := range req.Queries {
		q := qDynamic
		q.Work = float64(i) / 100
		req.Queries[i] = q
		ans, err := a.Advise(context.Background(), q)
		if err != nil {
			b.Fatal(err)
		}
		resp.Answers[i].Answer = ans
	}
	reqBody, _ := req.MarshalJSON()
	respBody, _ := resp.MarshalJSON()
	b.Run("client-encode", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			req.MarshalJSON() //nolint:errcheck
		}
	})
	b.Run("server-decode", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			DecodeBatch(reqBody) //nolint:errcheck
		}
	})
	b.Run("server-encode", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			resp.MarshalJSON() //nolint:errcheck
		}
	})
	b.Run("client-decode", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			var r BatchResponse
			r.UnmarshalJSON(respBody) //nolint:errcheck
		}
	})
}
