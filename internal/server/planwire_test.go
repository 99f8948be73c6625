package server

import (
	"bytes"
	"encoding/json"
	"math"
	"math/rand"
	"reflect"
	"strconv"
	"testing"

	"repro/internal/pqotest"
)

// encodeStdlib is the reference the append encoder must reproduce.
func encodeStdlib(t testing.TB, resp *PlanResponse) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(resp); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// allFieldsSet returns a PlanResponse with every field non-zero, set by
// reflection so a field added to PlanResponse without encoder support
// fails TestAppendPlanResponseMatchesEncodingJSON.
func allFieldsSet(t testing.TB) PlanResponse {
	t.Helper()
	var resp PlanResponse
	v := reflect.ValueOf(&resp).Elem()
	for i := 0; i < v.NumField(); i++ {
		f := v.Field(i)
		switch f.Kind() {
		case reflect.String:
			f.SetString("<" + v.Type().Field(i).Name + ">")
		case reflect.Bool:
			f.SetBool(true)
		case reflect.Uint64:
			f.SetUint(uint64(i + 1))
		case reflect.Int64:
			f.SetInt(int64(-i - 1))
		case reflect.Float64:
			f.SetFloat(float64(i) + 0.25)
		default:
			t.Fatalf("PlanResponse.%s has kind %s; teach appendPlanResponse and this test about it",
				v.Type().Field(i).Name, f.Kind())
		}
	}
	return resp
}

func TestAppendPlanResponseMatchesEncodingJSON(t *testing.T) {
	base := PlanResponse{Via: "selectivity-check", Plan: "TableScan t\n", Fingerprint: "TableScan(t)"}
	with := func(mut func(*PlanResponse)) PlanResponse {
		r := base
		mut(&r)
		return r
	}
	cases := map[string]PlanResponse{
		"zero value":       {},
		"omitempty absent": base,
		"every field":      allFieldsSet(t),
		"html":             with(func(r *PlanResponse) { r.Plan = "a<b>c&d</script>" }),
		"quotes and backslashes": with(func(r *PlanResponse) {
			r.Fingerprint = `say "hi" \ bye`
		}),
		"control characters": with(func(r *PlanResponse) {
			r.Plan = "\x00\x01\b\f\n\r\t\x1f\x7f end"
		}),
		"line separators": with(func(r *PlanResponse) { r.Plan = "a\u2028b\u2029c\u2027d" }),
		"invalid utf-8": with(func(r *PlanResponse) {
			r.Plan = "ok\xffbad\xc3(\xe2\x82 tail\xf0\x9f\x98"
		}),
		"multibyte": with(func(r *PlanResponse) { r.DegradedReason = "k\u00e4se \u2192 \u2211 \U0001f600" }),
		"negative latency": with(func(r *PlanResponse) {
			r.LatencyMicros = math.MinInt64
		}),
		"max epochs": with(func(r *PlanResponse) { r.Epoch, r.NodeEpoch = math.MaxUint64, 1 }),
	}
	floats := []float64{0, math.Copysign(0, -1), 1, -1, 0.1, 1e-6, 9.99999e-7, 1e-7, 1.5e-300,
		5e-324, 1e20, 1e21, 123456789e13, -1e21, 1e100, math.MaxFloat64, -math.SmallestNonzeroFloat64,
		973.2801638228158, 1.0000000000000002, 12345.678}
	for _, f := range floats {
		cases["float "+strconv.FormatFloat(f, 'g', -1, 64)] =
			with(func(r *PlanResponse) { r.EstimatedCost = f })
	}
	for name, resp := range cases {
		want := encodeStdlib(t, &resp)
		if got := appendPlanResponse(nil, &resp); !bytes.Equal(got, want) {
			t.Errorf("%s:\n got  %q\n want %q", name, got, want)
		}
	}
	// Appending must not disturb what the buffer already holds.
	prefix := []byte("prefix")
	if got := appendPlanResponse(prefix, &base); !bytes.HasPrefix(got, prefix) {
		t.Errorf("append clobbered the prefix: %q", got)
	}
}

// FuzzAppendPlanResponse checks the append encoder against encoding/json
// on arbitrary strings, finite floats and integers.
func FuzzAppendPlanResponse(f *testing.F) {
	f.Add("cost-check", "HashJoin <x> & y\n", "fp\u2028", "", 1.5, uint64(3), uint64(4), int64(12), uint8(0xff))
	f.Add("\xff\xfe", "\x00\t\"\\", "\U0001f600", "breaker-open", 1e-7, uint64(0), uint64(0), int64(-1), uint8(0))
	f.Add("", "", "", "r", 1e21, uint64(1), uint64(0), int64(0), uint8(5))
	f.Fuzz(func(t *testing.T, via, plan, fp, reason string, cost float64, epoch, node uint64, lat int64, flags uint8) {
		if math.IsNaN(cost) || math.IsInf(cost, 0) {
			return
		}
		resp := PlanResponse{
			Via: via, Optimized: flags&1 != 0, Shared: flags&2 != 0, Degraded: flags&4 != 0,
			DegradedReason: reason, Epoch: epoch, NodeEpoch: node, EstimatedCost: cost,
			CostUnavailable: flags&8 != 0, Plan: plan, Fingerprint: fp, LatencyMicros: lat,
		}
		want := encodeStdlib(t, &resp)
		if got := appendPlanResponse(nil, &resp); !bytes.Equal(got, want) {
			t.Fatalf("encoder differs from encoding/json:\n got  %q\n want %q", got, want)
		}
	})
}

// checkDecodeAgrees asserts that a body decodePlanRequest accepts decodes
// to bit-identical values under encoding/json.
func checkDecodeAgrees(t *testing.T, body []byte, tpl []byte, sv []float64) {
	t.Helper()
	var ref PlanRequest
	if err := json.Unmarshal(body, &ref); err != nil {
		t.Fatalf("accepted %q, which encoding/json rejects: %v", body, err)
	}
	if string(tpl) != ref.Template {
		t.Fatalf("%q: template %q, encoding/json %q", body, tpl, ref.Template)
	}
	if (sv == nil) != (ref.SVector == nil) || len(sv) != len(ref.SVector) {
		t.Fatalf("%q: sVector %v, encoding/json %v", body, sv, ref.SVector)
	}
	for i := range sv {
		if math.Float64bits(sv[i]) != math.Float64bits(ref.SVector[i]) {
			t.Fatalf("%q: sVector[%d] = %v, encoding/json %v", body, i, sv[i], ref.SVector[i])
		}
	}
}

// FuzzDecodePlanRequest is the /v1/plan trust boundary: the decoder must
// never panic, every body it accepts must mean the same to encoding/json,
// and every body json.Marshal produces for a PlanRequest must be
// accepted.
func FuzzDecodePlanRequest(f *testing.F) {
	rng := rand.New(rand.NewSource(1))
	for d := 1; d <= 10; d++ {
		body, err := json.Marshal(PlanRequest{Template: "tpch_3way_00", SVector: pqotest.RandomSVector(rng, d)})
		if err != nil {
			f.Fatal(err)
		}
		f.Add(body)
	}
	for _, s := range []string{
		` { "sVector" : [ 1 , -0 , 2.5E+3 ] , "template" : "a\u00e9\ud83d\ude00\n\/" } `,
		`{"template":"t","sVector":null}`,
		`{"template":"t","sVector":[]}`,
		`{}`,
		`{"template":"t","svector":[0.1]}`,
		`{"template":"t","sVector":[0.1]} x`,
		`{"template":"\ud800","sVector":[1e400]}`,
	} {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		tpl, sv, err := decodePlanRequest(body)
		if err == nil {
			checkDecodeAgrees(t, body, tpl, sv)
		}
		var ref PlanRequest
		if json.Unmarshal(body, &ref) != nil {
			return
		}
		canon, err := json.Marshal(ref)
		if err != nil {
			return
		}
		tpl, sv, err = decodePlanRequest(canon)
		if err != nil {
			t.Fatalf("rejected json.Marshal output %q: %v", canon, err)
		}
		checkDecodeAgrees(t, canon, tpl, sv)
	})
}

func TestDecodePlanRequestAccepts(t *testing.T) {
	for _, body := range []string{
		`{"template":"t1","sVector":[0.1,0.2]}`,
		"\t\r\n {\n\"sVector\"\t:[ 0.1 ,0.2 ] ,\"template\":\"t1\" }\n",
		`{"template":"t\u0031","sVector":[1E-2,2e+1,0,-0.0,1.5e-310]}`,
		`{"template":"\"\\\/\b\f\n\r\t\u00e9\ud834\udd1e","sVector":[]}`,
		"{\"template\":\"k\u00e4se \U0001f600\",\"sVector\":null}",
		`{"template":""}`,
		`{"sVector":[5]}`,
		`{}`,
	} {
		tpl, sv, err := decodePlanRequest([]byte(body))
		if err != nil {
			t.Errorf("%q rejected: %v", body, err)
			continue
		}
		checkDecodeAgrees(t, []byte(body), tpl, sv)
	}
}

func TestDecodePlanRequestRejects(t *testing.T) {
	for name, body := range map[string]string{
		"empty":             ``,
		"whitespace":        " \n",
		"null":              `null`,
		"array":             `[]`,
		"unterminated":      `{"template":"t1","sVector":[0.1,0.2]`,
		"unknown key":       `{"template":"t1","sVector":[0.1],"lambda":2}`,
		"wrong key case":    `{"template":"t1","svector":[0.1]}`,
		"wrong key case 2":  `{"Template":"t1","sVector":[0.1]}`,
		"escaped wrong key": `{"templat\u0045":"t1"}`,
		"duplicate key":     `{"template":"t1","template":"t2","sVector":[0.1]}`,
		"duplicate sVector": `{"template":"t1","sVector":[0.1],"sVector":[0.1]}`,
		"trailing data":     `{"template":"t1","sVector":[0.1]} {}`,
		"trailing garbage":  `{"template":"t1","sVector":[0.1]}x`,
		"trailing comma":    `{"template":"t1","sVector":[0.1],}`,
		"array comma":       `{"template":"t1","sVector":[0.1,]}`,
		"missing colon":     `{"template" "t1"}`,
		"template null":     `{"template":null}`,
		"template number":   `{"template":1}`,
		"sVector string":    `{"sVector":"0.1"}`,
		"sVector nested":    `{"sVector":[[0.1]]}`,
		"sVector object":    `{"sVector":{}}`,
		"leading zero":      `{"sVector":[01]}`,
		"leading plus":      `{"sVector":[+1]}`,
		"bare dot":          `{"sVector":[.5]}`,
		"dot no digits":     `{"sVector":[1.]}`,
		"exp no digits":     `{"sVector":[1e]}`,
		"hex":               `{"sVector":[0x1]}`,
		"NaN":               `{"sVector":[NaN]}`,
		"Infinity":          `{"sVector":[Infinity]}`,
		"overflow":          `{"sVector":[1e400]}`,
		"minus alone":       `{"sVector":[-]}`,
		"nul":               `{"sVector":nul}`,
		"control char":      "{\"template\":\"a\x01b\"}",
		"invalid utf-8":     "{\"template\":\"a\xffb\"}",
		"invalid escape":    `{"template":"\x"}`,
		"short \\u":         `{"template":"\u12"}`,
		"lone high":         `{"template":"\ud800"}`,
		"lone low":          `{"template":"\udc00x"}`,
		"high then ascii":   `{"template":"\ud800\u0041"}`,
		"unterminated str":  `{"template":"abc`,
		"bom":               "\xef\xbb\xbf{}",
		"single quotes":     `{'template':'t1'}`,
	} {
		if _, _, err := decodePlanRequest([]byte(body)); err == nil {
			t.Errorf("%s: %q accepted", name, body)
		}
	}
}

// TestDecodePlanRequestOwnsVector pins the aliasing contract: the vector
// is a fresh slice, so the pooled body buffer can be reused once the
// handler returns.
func TestDecodePlanRequestOwnsVector(t *testing.T) {
	body := []byte(`{"template":"t1","sVector":[0.5,0.25]}`)
	_, sv, err := decodePlanRequest(body)
	if err != nil {
		t.Fatal(err)
	}
	for i := range body {
		body[i] = 0
	}
	if sv[0] != 0.5 || sv[1] != 0.25 || cap(sv) != 2 {
		t.Fatalf("sVector %v (cap %d) depends on the body buffer", sv, cap(sv))
	}
}
