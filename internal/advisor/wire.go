package advisor

// The advisor's wire codecs. The five types that cross the HTTP hop —
// Query, Answer, BatchAnswer, BatchRequest and BatchResponse — encode
// and decode themselves without encoding/json's reflective walk, on the
// server and, through httpd.Client's direct method calls, on the client.
//
// Encoding writes exactly what encoding/json writes for the same keys
// with HTML escaping off. An answer carries the keys of its own mode:
//
//	dynamic  mode, fingerprint, r, checkpoint_now, work, elapsed, w_int, has_w_int
//	static   mode, fingerprint, r, n_opt, e_n_opt, y_opt
//	preempt  mode, fingerprint, r, x, expected_work, method, interior,
//	         pessimistic_x, pessimistic_work, gain
//
// method is omitted when empty. A key of another mode is written only
// when its field is not zero, which no answer of the advisor has, so
// every value survives a round trip. A failed batch item is
// {"error":"…"}. Queries keep encoding/json's shape.
//
// Decoding takes a strict fast path over the canonical subset the
// encoders write: a flat object of known lower-case keys, each at most
// once, strings without escapes in valid UTF-8, numbers in JSON grammar,
// true and false, and whitespace wherever JSON allows it. Any other
// input leaves the target untouched and goes to json.Unmarshal on a
// method-free shadow of the type, so case-insensitive keys, unknown
// keys, null, duplicates, type errors that still fill the other fields
// and the error texts behave exactly as encoding/json has them. The
// shadows carry the types' own names for that reason.

import (
	"bytes"
	"encoding/json"
	"math"
	"reflect"
	"strconv"
	"unicode/utf8"
	"unsafe"

	"reskit/internal/httpd"
)

// MarshalJSON encodes the query as encoding/json does.
func (q Query) MarshalJSON() ([]byte, error) {
	e := encoder{b: make([]byte, 0, 128)}
	q.encode(&e)
	return e.bytes()
}

// MarshalJSON encodes the answer with its mode's keys.
func (a Answer) MarshalJSON() ([]byte, error) {
	e := encoder{b: make([]byte, 0, 256)}
	a.encode(&e)
	return e.bytes()
}

// MarshalJSON encodes the answer, or {"error":"…"} for a failed item.
func (x BatchAnswer) MarshalJSON() ([]byte, error) {
	e := encoder{b: make([]byte, 0, 256)}
	x.encode(&e)
	return e.bytes()
}

// MarshalJSON encodes the batch request.
func (r BatchRequest) MarshalJSON() ([]byte, error) {
	e := encoder{b: make([]byte, 0, 16+128*len(r.Queries))}
	e.raw(`{"queries":`)
	encodeList(&e, r.Queries, (*Query).encode)
	e.raw("}")
	return e.bytes()
}

// MarshalJSON encodes the batch response.
func (r BatchResponse) MarshalJSON() ([]byte, error) {
	e := encoder{b: make([]byte, 0, 16+192*len(r.Answers))}
	e.raw(`{"answers":`)
	encodeList(&e, r.Answers, (*BatchAnswer).encode)
	e.raw("}")
	return e.bytes()
}

func (q *Query) encode(e *encoder) {
	e.str(true, `{"mode":`, q.Mode)
	e.float(true, `,"r":`, q.R)
	e.str(false, `,"task":`, q.Task)
	e.str(false, `,"taskdisc":`, q.TaskDisc)
	e.str(true, `,"ckpt":`, q.Ckpt)
	e.float(false, `,"work":`, q.Work)
	e.float(false, `,"elapsed":`, q.Elapsed)
	e.raw("}")
}

func (a *Answer) encode(e *encoder) {
	a.encodeFields(e)
	e.raw("}")
}

// encodeFields writes the answer's object without its closing brace.
func (a *Answer) encodeFields(e *encoder) {
	dyn, sta, pre := a.Mode == ModeDynamic, a.Mode == ModeStatic, a.Mode == ModePreempt
	e.str(true, `{"mode":`, a.Mode)
	e.raw(`,"fingerprint":`)
	e.b = a.Fingerprint.AppendJSON(e.b)
	e.float(true, `,"r":`, a.R)
	e.boolean(dyn, `,"checkpoint_now":`, a.CheckpointNow)
	e.float(dyn, `,"work":`, a.Work)
	e.float(dyn, `,"elapsed":`, a.Elapsed)
	e.float(dyn, `,"w_int":`, a.WInt)
	e.boolean(dyn, `,"has_w_int":`, a.HasWInt)
	e.integer(sta, `,"n_opt":`, a.NOpt)
	e.float(sta, `,"e_n_opt":`, a.ENOpt)
	e.float(sta, `,"y_opt":`, a.YOpt)
	e.float(pre, `,"x":`, a.X)
	e.float(pre, `,"expected_work":`, a.ExpectedWork)
	e.str(false, `,"method":`, a.Method)
	e.boolean(pre, `,"interior":`, a.Interior)
	e.float(pre, `,"pessimistic_x":`, a.PessX)
	e.float(pre, `,"pessimistic_work":`, a.PessWork)
	e.float(pre, `,"gain":`, a.Gain)
}

func (x *BatchAnswer) encode(e *encoder) {
	if x.Error != "" && x.Answer == (Answer{}) {
		e.str(true, `{"error":`, x.Error)
	} else {
		x.Answer.encodeFields(e)
		e.str(false, `,"error":`, x.Error)
	}
	e.raw("}")
}

// encodeList writes a JSON array of vs, or null for a nil slice.
func encodeList[T any](e *encoder, vs []T, encode func(*T, *encoder)) {
	if vs == nil {
		e.raw("null")
		return
	}
	e.raw("[")
	for i := range vs {
		if i > 0 {
			e.raw(",")
		}
		encode(&vs[i], e)
	}
	e.raw("]")
}

// encoder appends JSON to b. Each keyed write takes the key with its
// punctuation (`,"r":`) and writes nothing when always is false and the
// value is zero. The first value JSON cannot carry, a NaN or an
// infinity, sticks in err.
type encoder struct {
	b   []byte
	err error
}

func (e *encoder) bytes() ([]byte, error) {
	if e.err != nil {
		return nil, e.err
	}
	return e.b, nil
}

func (e *encoder) raw(s string) { e.b = append(e.b, s...) }

func (e *encoder) str(always bool, key, s string) {
	if always || s != "" {
		e.b = appendString(append(e.b, key...), s)
	}
}

func (e *encoder) float(always bool, key string, f float64) {
	if !always && f == 0 {
		return
	}
	e.b = append(e.b, key...)
	if math.IsInf(f, 0) || math.IsNaN(f) {
		if e.err == nil {
			e.err = &json.UnsupportedValueError{Value: reflect.ValueOf(f), Str: strconv.FormatFloat(f, 'g', -1, 64)}
		}
		return
	}
	e.b = appendFloat(e.b, f)
}

func (e *encoder) boolean(always bool, key string, v bool) {
	if always || v {
		e.b = strconv.AppendBool(append(e.b, key...), v)
	}
}

func (e *encoder) integer(always bool, key string, n int) {
	if always || n != 0 {
		e.b = strconv.AppendInt(append(e.b, key...), int64(n), 10)
	}
}

// appendFloat appends a finite f as encoding/json writes a float64: the
// shortest form that reads back exactly, in exponent form below 1e-6
// and from 1e21 on, with a negative one-digit exponent unpadded (1e-7,
// not 1e-07).
func appendFloat(b []byte, f float64) []byte {
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, f, format, -1, 64)
	if n := len(b); format == 'e' && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
		b[n-2] = b[n-1]
		b = b[:n-1]
	}
	return b
}

// appendString appends s as a JSON string escaped as encoding/json
// escapes it with HTML escaping off: quotes, backslashes and control
// bytes, invalid UTF-8 as U+FFFD, and U+2028 and U+2029.
func appendString(b []byte, s string) []byte {
	const hex = "0123456789abcdef"
	b = append(b, '"')
	start := 0
	for i := 0; i < len(s); {
		c := s[i]
		if c >= 0x20 && c != '"' && c != '\\' && c < utf8.RuneSelf {
			i++
			continue
		}
		if c < utf8.RuneSelf {
			b = append(b, s[start:i]...)
			switch c {
			case '"', '\\':
				b = append(b, '\\', c)
			case '\b':
				b = append(b, '\\', 'b')
			case '\f':
				b = append(b, '\\', 'f')
			case '\n':
				b = append(b, '\\', 'n')
			case '\r':
				b = append(b, '\\', 'r')
			case '\t':
				b = append(b, '\\', 't')
			default:
				b = append(b, '\\', 'u', '0', '0', hex[c>>4], hex[c&0xf])
			}
			i++
			start = i
			continue
		}
		r, size := utf8.DecodeRuneInString(s[i:])
		switch {
		case r == utf8.RuneError && size == 1:
			b = append(append(b, s[start:i]...), `\ufffd`...)
		case r == '\u2028' || r == '\u2029':
			b = append(append(b, s[start:i]...), '\\', 'u', '2', '0', '2', hex[r&0xf])
		default:
			i += size
			continue
		}
		i += size
		start = i
	}
	return append(append(b, s[start:]...), '"')
}

// UnmarshalJSON decodes a query as encoding/json does.
func (q *Query) UnmarshalJSON(data []byte) error {
	if decodeObject(data, q) {
		return nil
	}
	return q.unmarshalStd(data)
}

// UnmarshalJSON decodes an answer as encoding/json does.
func (a *Answer) UnmarshalJSON(data []byte) error {
	if decodeObject(data, a) {
		return nil
	}
	return a.unmarshalStd(data)
}

// UnmarshalJSON decodes a batch item as encoding/json does. BatchAnswer
// needs its own method: Answer's, promoted, would drop the error key.
func (x *BatchAnswer) UnmarshalJSON(data []byte) error {
	if decodeObject(data, x) {
		return nil
	}
	return x.unmarshalStd(data)
}

// UnmarshalJSON decodes a batch request as encoding/json does.
func (r *BatchRequest) UnmarshalJSON(data []byte) error {
	if decodeList(data, "queries", &r.Queries) {
		return nil
	}
	return r.unmarshalStd(data)
}

// UnmarshalJSON decodes a batch response as encoding/json does.
func (r *BatchResponse) UnmarshalJSON(data []byte) error {
	if decodeList(data, "answers", &r.Answers) {
		return nil
	}
	return r.unmarshalStd(data)
}

// Method-free shadows for the fallback. Each unmarshalStd declares the
// type's own name over one of these, so encoding/json's error texts
// read as they did before the types had methods.
type (
	queryFields  Query
	answerFields Answer
)

func (q *Query) unmarshalStd(data []byte) error {
	type Query queryFields
	return json.Unmarshal(data, (*Query)(q))
}

func (a *Answer) unmarshalStd(data []byte) error {
	type Answer answerFields
	return json.Unmarshal(data, (*Answer)(a))
}

// The shadows below have the layout of the types they stand for, field
// for field, so the unsafe pointer conversions are sound; only the
// method sets differ.

func (x *BatchAnswer) unmarshalStd(data []byte) error {
	type Answer answerFields
	type BatchAnswer struct {
		Answer
		Error string `json:"error,omitempty"`
	}
	return json.Unmarshal(data, (*BatchAnswer)(unsafe.Pointer(x)))
}

func (r *BatchRequest) unmarshalStd(data []byte) error {
	type Query queryFields
	type BatchRequest struct {
		Queries []Query `json:"queries"`
	}
	return json.Unmarshal(data, (*BatchRequest)(unsafe.Pointer(r)))
}

func (r *BatchResponse) unmarshalStd(data []byte) error {
	type Answer answerFields
	type BatchAnswer struct {
		Answer
		Error string `json:"error,omitempty"`
	}
	type BatchResponse struct {
		Answers []BatchAnswer `json:"answers"`
	}
	return json.Unmarshal(data, (*BatchResponse)(unsafe.Pointer(r)))
}

// field reads the value of one query key; see scanner.object.
func (q *Query) field(s *scanner, key []byte) int {
	switch string(key) {
	case "mode":
		return s.text(&q.Mode, 0)
	case "r":
		return s.float(&q.R, 1)
	case "task":
		return s.text(&q.Task, 2)
	case "taskdisc":
		return s.text(&q.TaskDisc, 3)
	case "ckpt":
		return s.text(&q.Ckpt, 4)
	case "work":
		return s.float(&q.Work, 5)
	case "elapsed":
		return s.float(&q.Elapsed, 6)
	}
	return -1
}

// field reads the value of one answer key; see scanner.object.
func (a *Answer) field(s *scanner, key []byte) int {
	switch string(key) {
	case "mode":
		return s.text(&a.Mode, 0)
	case "fingerprint":
		return s.hex(&a.Fingerprint, 1)
	case "r":
		return s.float(&a.R, 2)
	case "checkpoint_now":
		return s.boolean(&a.CheckpointNow, 3)
	case "work":
		return s.float(&a.Work, 4)
	case "elapsed":
		return s.float(&a.Elapsed, 5)
	case "w_int":
		return s.float(&a.WInt, 6)
	case "has_w_int":
		return s.boolean(&a.HasWInt, 7)
	case "n_opt":
		return s.integer(&a.NOpt, 8)
	case "e_n_opt":
		return s.float(&a.ENOpt, 9)
	case "y_opt":
		return s.float(&a.YOpt, 10)
	case "x":
		return s.float(&a.X, 11)
	case "expected_work":
		return s.float(&a.ExpectedWork, 12)
	case "method":
		return s.text(&a.Method, 13)
	case "interior":
		return s.boolean(&a.Interior, 14)
	case "pessimistic_x":
		return s.float(&a.PessX, 15)
	case "pessimistic_work":
		return s.float(&a.PessWork, 16)
	case "gain":
		return s.float(&a.Gain, 17)
	}
	return -1
}

// field reads the value of one batch-item key; see scanner.object.
func (x *BatchAnswer) field(s *scanner, key []byte) int {
	if string(key) == "error" {
		return s.text(&x.Error, 18)
	}
	return x.Answer.field(s, key)
}

// decodeObject decodes one flat object into *dst and reports whether
// data was canonical. Only then is *dst written; the fields the input
// lacks keep their values.
func decodeObject[T any](data []byte, dst *T) bool {
	v := *dst
	s := scanner{data: data}
	if !s.object(&v) || !s.end() {
		return false
	}
	*dst = v
	return true
}

// decodeList decodes an object whose one key holds an array of flat
// objects into *dst, as decodeObject does. It takes only an empty
// target: encoding/json decodes into the elements a slice already
// holds, merging, and only the fallback reproduces that.
func decodeList[T any](data []byte, key string, dst *[]T) bool {
	if cap(*dst) != 0 {
		return false
	}
	s := scanner{data: data}
	if !s.consume('{') {
		return false
	}
	if s.consume('}') {
		return s.end()
	}
	if k, ok := s.str(); !ok || string(k) != key || !s.consume(':') || !s.consume('[') {
		return false
	}
	vs := []T{}
	if !s.consume(']') {
		for {
			var zero T
			vs = append(vs, zero)
			if !s.object(&vs[len(vs)-1]) {
				return false
			}
			if !s.consume(',') {
				break
			}
		}
		if !s.consume(']') {
			return false
		}
	}
	if !s.consume('}') || !s.end() {
		return false
	}
	*dst = vs
	return true
}

// scanner walks the canonical subset of JSON that the fast paths take.
// The value readers store into dst and return bit, the key's index in
// its object, or -1 when the input leaves the subset.
type scanner struct {
	data []byte
	i    int
	// strs holds recently read strings: a batch repeats a few modes
	// and law specs a thousand times, and an equal string is shared,
	// not allocated again.
	strs [8]string
	next int
}

// object walks one flat object into v, a *Query, *Answer or
// *BatchAnswer, reading each value through the target's own field
// method. A key the target does not have, or one seen twice, ends the
// walk. The type switch, where a func or interface value would do,
// keeps v and s off the heap.
func (s *scanner) object(v any) bool {
	if !s.consume('{') {
		return false
	}
	if s.consume('}') {
		return true
	}
	var seen uint64
	for {
		key, ok := s.str()
		if !ok || !s.consume(':') {
			return false
		}
		bit := -1
		switch v := v.(type) {
		case *Query:
			bit = v.field(s, key)
		case *Answer:
			bit = v.field(s, key)
		case *BatchAnswer:
			bit = v.field(s, key)
		}
		if bit < 0 || seen&(1<<bit) != 0 {
			return false
		}
		seen |= 1 << bit
		if !s.consume(',') {
			return s.consume('}')
		}
	}
}

func (s *scanner) space() {
	for s.i < len(s.data) {
		switch s.data[s.i] {
		case ' ', '\t', '\n', '\r':
			s.i++
		default:
			return
		}
	}
}

// consume skips whitespace and then c, reporting whether c was there.
func (s *scanner) consume(c byte) bool {
	s.space()
	if s.i < len(s.data) && s.data[s.i] == c {
		s.i++
		return true
	}
	return false
}

// end reports whether only whitespace is left.
func (s *scanner) end() bool {
	s.space()
	return s.i == len(s.data)
}

// str reads a string without escapes and returns its contents.
func (s *scanner) str() ([]byte, bool) {
	if !s.consume('"') {
		return nil, false
	}
	start, ascii := s.i, true
	for j := start; j < len(s.data); j++ {
		switch c := s.data[j]; {
		case c == '"':
			b := s.data[start:j]
			if !ascii && !utf8.Valid(b) {
				return nil, false
			}
			s.i = j + 1
			return b, true
		case c == '\\' || c < 0x20:
			return nil, false
		case c >= utf8.RuneSelf:
			ascii = false
		}
	}
	return nil, false
}

// num reads a number in JSON grammar.
func (s *scanner) num() ([]byte, bool) {
	s.space()
	d, j := s.data, s.i
	digits := func() bool {
		k := j
		for j < len(d) && '0' <= d[j] && d[j] <= '9' {
			j++
		}
		return j > k
	}
	if j < len(d) && d[j] == '-' {
		j++
	}
	if j < len(d) && d[j] == '0' {
		j++
	} else if !digits() {
		return nil, false
	}
	if j < len(d) && d[j] == '.' {
		j++
		if !digits() {
			return nil, false
		}
	}
	if j < len(d) && (d[j] == 'e' || d[j] == 'E') {
		j++
		if j < len(d) && (d[j] == '+' || d[j] == '-') {
			j++
		}
		if !digits() {
			return nil, false
		}
	}
	b := d[s.i:j]
	s.i = j
	return b, true
}

func (s *scanner) text(dst *string, bit int) int {
	b, ok := s.str()
	if !ok {
		return -1
	}
	*dst = s.intern(b)
	return bit
}

func (s *scanner) intern(b []byte) string {
	for _, v := range s.strs {
		if string(b) == v {
			return v
		}
	}
	for _, v := range [...]string{ModeDynamic, ModeStatic, ModePreempt} {
		if string(b) == v {
			return v
		}
	}
	v := string(b)
	s.strs[s.next%len(s.strs)] = v
	s.next++
	return v
}

// float and integer parse as encoding/json does; a value out of range is
// its type error, which the fallback reports.
func (s *scanner) float(dst *float64, bit int) int {
	b, ok := s.num()
	if !ok {
		return -1
	}
	f, err := strconv.ParseFloat(string(b), 64)
	if err != nil {
		return -1
	}
	*dst = f
	return bit
}

func (s *scanner) integer(dst *int, bit int) int {
	b, ok := s.num()
	if !ok {
		return -1
	}
	n, err := strconv.Atoi(string(b))
	if err != nil {
		return -1
	}
	*dst = n
	return bit
}

func (s *scanner) boolean(dst *bool, bit int) int {
	s.space()
	switch rest := s.data[s.i:]; {
	case bytes.HasPrefix(rest, []byte("true")):
		*dst = true
		s.i += 4
	case bytes.HasPrefix(rest, []byte("false")):
		*dst = false
		s.i += 5
	default:
		return -1
	}
	return bit
}

// hex parses a fingerprint as httpd.Hex64.UnmarshalJSON does.
func (s *scanner) hex(dst *httpd.Hex64, bit int) int {
	b, ok := s.str()
	if !ok {
		return -1
	}
	v, err := strconv.ParseUint(string(b), 16, 64)
	if err != nil {
		return -1
	}
	*dst = httpd.Hex64(v)
	return bit
}
