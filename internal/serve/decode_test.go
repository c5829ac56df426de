package serve

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"testing"
)

// decodeWindowsReference is the reflective decoder decodeWindowsBody
// replaced: encoding/json plus a Token() == io.EOF check for trailing
// bytes. FuzzDecodeWindows holds the two to the same results.
func decodeWindowsReference(body io.Reader, maxBody int64, req *predictRequest) error {
	dec := json.NewDecoder(body)
	if err := dec.Decode(req); err != nil {
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			return &httpError{http.StatusRequestEntityTooLarge, codeBodyTooLarge, fmt.Sprintf("body exceeds %d bytes", maxBody)}
		}
		return &httpError{http.StatusBadRequest, codeInvalidJSON, "invalid JSON: " + err.Error()}
	}
	if _, err := dec.Token(); err != io.EOF {
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			return &httpError{http.StatusRequestEntityTooLarge, codeBodyTooLarge, fmt.Sprintf("body exceeds %d bytes", maxBody)}
		}
		return &httpError{http.StatusBadRequest, codeTrailingData, "trailing data after JSON body"}
	}
	return nil
}

// sameWindows reports where got and want differ — nil-ness, lengths, or
// value bits (so -0 and 0 differ) — or "" when they are identical.
func sameWindows(got, want [][][]float64) string {
	if (got == nil) != (want == nil) || len(got) != len(want) {
		return fmt.Sprintf("windows: got len %d nil=%v, want len %d nil=%v", len(got), got == nil, len(want), want == nil)
	}
	for i := range want {
		if (got[i] == nil) != (want[i] == nil) || len(got[i]) != len(want[i]) {
			return fmt.Sprintf("window %d: got len %d nil=%v, want len %d nil=%v", i, len(got[i]), got[i] == nil, len(want[i]), want[i] == nil)
		}
		for t := range want[i] {
			g, w := got[i][t], want[i][t]
			if (g == nil) != (w == nil) || len(g) != len(w) {
				return fmt.Sprintf("window %d row %d: got %v nil=%v, want %v nil=%v", i, t, g, g == nil, w, w == nil)
			}
			for s := range w {
				if math.Float64bits(g[s]) != math.Float64bits(w[s]) {
					return fmt.Sprintf("window %d row %d value %d: got %v (%#x), want %v (%#x)",
						i, t, s, g[s], math.Float64bits(g[s]), w[s], math.Float64bits(w[s]))
				}
			}
		}
	}
	return ""
}

// checkRowsLenEqCap fails unless every decoded row has len == cap, so an
// append to a row can never write into the next row's values.
func checkRowsLenEqCap(t testing.TB, ws [][][]float64) {
	t.Helper()
	for i, win := range ws {
		if len(win) != cap(win) {
			t.Fatalf("window %d: len %d != cap %d", i, len(win), cap(win))
		}
		for r, row := range win {
			if len(row) != cap(row) {
				t.Fatalf("window %d row %d: len %d != cap %d", i, r, len(row), cap(row))
			}
		}
	}
}

// FuzzDecodeWindows holds decodeWindowsBody to the encoding/json decoder
// it replaced on arbitrary bodies: both accept or reject the same body with
// the same error code, and accepted bodies decode to bit-identical windows
// and identical source_only and strategy. cut, when inside the body, is the
// body cap, so truncation at the cap is compared too; hint chooses whether
// the Content-Length is known.
func FuzzDecodeWindows(f *testing.F) {
	for _, body := range []string{
		// Bodies of the serve tests.
		`{nope`,
		`{"windows":[[[0,0]]]}{"again":1}`,
		`{"windows":[]}`,
		`{"windows":[[[1,2,3]]]}`,
		`{"windows":[[[0.1,0.2],[0.3,0.4]]],"strategy":"margin+constant+nope"}`,
		`{"windows":[[[0.1,0.2],[0.3,0.4]]],"strategy":"margin+constant+ema"}`,
		`{"windows":[[[0.1,0.2],[0.3,0.4]]],"source_only":true}`,
		`{"windows":[[[0.1],[0.2]]]}`,
		`{"windows":[[[1,2]]]}junk`,
		"{\"windows\":[[[1,2]]]} \n\t",
		// Escaped and case-folded keys.
		`{"WINDOWS":[[[1,2]]]}`,
		`{"Windows":[[[1,2]]],"Source_Only":true,"STRATEGY":"entropy+anneal+ema"}`,
		`{"windows":[[[1,2]]]}`,
		`{"ſtrategy":"margin+constant+ema","windows":[[[1]]]}`,
		`{"windowſ":[[[1]]],"strategy":"é😀\ud800x\\\/\b\f\n\r\t"}`,
		"{\"strategy\":\"\xff\xfe\",\"windows\":[[[1]]]}",
		`{"strategy":"\ud83d\ude00\ud83dx\uDE00","windows":[[[1]]]}`,
		// Number grammar and range.
		`{"windows":[[[01]]]}`,
		`{"windows":[[[+1]]]}`,
		`{"windows":[[[.5]]]}`,
		`{"windows":[[[1e400]]]}`,
		`{"windows":[[[-1e400]]]}`,
		`{"windows":[[[Infinity]]]}`,
		`{"windows":[[[NaN]]]}`,
		`{"windows":[[[-0,0,-0.0,4.9e-324,1e-400,2.2250738585072014e-308,1.7976931348623157e308]]]}`,
		`{"windows":[[[1.5E+3,2e-2,-3.25e0]]]}`,
		`{"windows":[[[1.]]]}`,
		`{"windows":[[[-]]]}`,
		// Types that do not fit.
		`{"windows":[[["1"]]]}`,
		`{"windows":[[[true]]]}`,
		`{"windows":[[[[1]]]]}`,
		`{"windows":[[1]]}`,
		`{"windows":[[["[",1]]]}`,
		`{"windows":[[{"[":1}]]}`,
		`{"windows":{}}`,
		`{"windows":"x"}`,
		`{"source_only":"true","windows":[[[1]]]}`,
		`{"strategy":7,"windows":[[[1]]]}`,
		`[[[1]]]`,
		`"windows"`,
		`1`,
		`null`,
		`nullx`,
		``,
		` `,
		// Nested unknown values.
		`{"meta":{"a":[1,{"b":[true,false,null,"s"]}],"c":{}},"windows":[[[1,2]]]}`,
		`{"meta":[[[[[[[[[[]]]]]]]]]],"windows":[[[1]]]}`,
		`{"meta":{"a":1,},"windows":[[[1]]]}`,
		`{"windows":[[[1]]],"meta":"[[[[,,,,"}`,
		// Duplicate keys.
		`{"windows":[[[1,2]]],"windows":[[[3]]]}`,
		`{"windows":[[[1,2,3]]],"windows":[[[9]]],"windows":[[[null,null,null,null]]]}`,
		`{"windows":[[[1]],[[2]]],"windows":[null,[[null]],[[5]]]}`,
		`{"source_only":true,"source_only":false,"strategy":"a","strategy":null}`,
		`{"windows":[[[1]]],"windows":null}`,
		`{"windows":[[[1]]],"windows":[]}`,
		// Null windows, rows and values.
		`{"windows":null}`,
		`{"windows":[null]}`,
		`{"windows":[null,[null,[1,null]],[]]}`,
		`{"windows":[[[]],[]]}`,
		// Commas and bytes that are not values, where windows, rows and
		// values belong.
		`{"windows":[,,]}`,
		`{"windows":[[,]]}`,
		`{"windows":[[[,]]]}`,
		`{"windows":[[[1,]]]}`,
		`{"windows":[[[1],]]}`,
		`{"windows":[x,x]}`,
		`{"windows":[[[1]],x]}`,
		`{"windows":[[[1]]],"windows":[[],x]}`,
		// Inner whitespace.
		" \r\n\t{ \"windows\" :\n[ [ [ 1 , 2 ] ,\t[ 3 , 4 ] ] , [ [ 5 , 6 ] ] ] , \"source_only\" : false } ",
	} {
		f.Add([]byte(body), uint16(0), true)
	}
	f.Add([]byte(`{"windows":[[[1,2]]]}`), uint16(10), true)
	f.Add([]byte(`{"windows":[[[1,2]]]}   `), uint16(22), false)
	f.Add([]byte(`{"windows":[[[1,x2]]]}`), uint16(17), true)
	f.Add([]byte(`1 `), uint16(1), false)
	f.Fuzz(matchesReference)
}

// matchesReference is FuzzDecodeWindows's check on one input.
func matchesReference(t *testing.T, body []byte, cut uint16, hint bool) {
	maxBody := int64(1 << 20)
	if cut > 0 && int(cut) < len(body) {
		maxBody = int64(cut)
	}
	var want predictRequest
	wantErr := decodeWindowsReference(http.MaxBytesReader(nil, io.NopCloser(bytes.NewReader(body)), maxBody), maxBody, &want)
	sizeHint := int64(-1)
	if hint {
		sizeHint = int64(len(body))
	}
	var got predictRequest
	gotErr := decodeWindowsBody(http.MaxBytesReader(nil, io.NopCloser(bytes.NewReader(body)), maxBody), sizeHint, maxBody, &got)
	if (gotErr == nil) != (wantErr == nil) || gotErr != nil && (errCode(gotErr) != errCode(wantErr) || errStatus(gotErr) != errStatus(wantErr)) {
		t.Fatalf("body %.200q (cap %d): got error %v, want %v", body, maxBody, gotErr, wantErr)
	}
	if gotErr != nil {
		return
	}
	if diff := sameWindows(got.Windows, want.Windows); diff != "" {
		t.Fatalf("body %.200q: %s", body, diff)
	}
	if got.SourceOnly != want.SourceOnly || got.Strategy != want.Strategy {
		t.Fatalf("body %.200q: got source_only=%v strategy=%q, want %v %q", body, got.SourceOnly, got.Strategy, want.SourceOnly, want.Strategy)
	}
}

// TestDecodeNestingLimit holds the decoder to encoding/json's nesting
// limit (10000 levels parse, 10001 do not), whole and cut short. Bodies
// this deep would slow FuzzDecodeWindows down if they were seeds.
func TestDecodeNestingLimit(t *testing.T) {
	for _, depth := range []int{maxNestingDepth - 1, maxNestingDepth} {
		nested := strings.Repeat("[", depth) + strings.Repeat("]", depth)
		body := []byte(`{"x":` + nested + `,"windows":[[[1]]]}`)
		for _, cut := range []uint16{0, uint16(depth), uint16(depth + 10), uint16(depth + 10 + depth/2)} {
			matchesReference(t, body, cut, true)
		}
	}
}

// TestDecodeAllocationBounded pins that bytes which are not valid JSON
// never size an allocation. Each body fills a 1 MiB cap and is invalid
// JSON, and decoding it allocates no more than twice the body: the body
// buffer and little else. Commas alone once counted as windows, rows or
// values, which asked for up to 24 bytes of slice headers per body byte
// before the syntax error was found.
func TestDecodeAllocationBounded(t *testing.T) {
	const maxBody = 1 << 20
	fill := func(prefix, unit, suffix string) []byte {
		n := (maxBody - len(prefix) - len(suffix)) / len(unit)
		return []byte(prefix + strings.Repeat(unit, n) + suffix)
	}
	for _, tc := range []struct {
		name string
		body []byte
	}{
		{"window_commas", fill(`{"windows":[`, ",", `]}`)},
		{"row_commas", fill(`{"windows":[[`, ",", `]]}`)},
		{"value_commas", fill(`{"windows":[[[`, ",", `]]]}`)},
		{"window_garbage", fill(`{"windows":[`, "x,", `x]}`)},
		{"empty_windows_then_garbage", fill(`{"windows":[`, "[],", `x]}`)},
		{"values_then_garbage", fill(`{"windows":[[[`, "1,", `x]]]}`)},
		{"scalar_windows_then_garbage", fill(`{"windows":[`, "0,", `x]}`)},
		{"duplicate_key_then_garbage", fill(`{"windows":[[[1]]],"windows":[`, "[],", `x]}`)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var before, after runtime.MemStats
			var req predictRequest
			runtime.ReadMemStats(&before)
			err := decodeWindowsBody(bytes.NewReader(tc.body), int64(len(tc.body)), maxBody, &req)
			runtime.ReadMemStats(&after)
			if err == nil || errCode(err) != codeInvalidJSON {
				t.Fatalf("got error %v, want %s", err, codeInvalidJSON)
			}
			if grew := after.TotalAlloc - before.TotalAlloc; grew > 2*uint64(len(tc.body)) {
				t.Fatalf("decoding a %d-byte body allocated %d bytes", len(tc.body), grew)
			}
		})
	}
}

// TestDecodeBodyBuffer pins how the body buffer is sized: a declared
// Content-Length sizes it only up to maxInitialBody, so a request that
// claims the whole cap but sends a short body does not hold the cap, and a
// body longer than maxInitialBody still decodes whole.
func TestDecodeBodyBuffer(t *testing.T) {
	const maxBody = 32 << 20
	short := []byte(`{"windows":[[[1,2]]]}`)
	var before, after runtime.MemStats
	var req predictRequest
	runtime.ReadMemStats(&before)
	err := decodeWindowsBody(bytes.NewReader(short), maxBody, maxBody, &req)
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	if grew := after.TotalAlloc - before.TotalAlloc; grew > maxInitialBody+64<<10 {
		t.Fatalf("a short body declaring %d bytes allocated %d bytes", maxBody, grew)
	}

	n := maxInitialBody/2 + 1000
	long := []byte(`{"windows":[[[` + strings.Repeat("1,", n) + `2]]]}`)
	for _, hint := range []int64{-1, int64(len(long))} {
		req = predictRequest{}
		if err := decodeWindowsBody(bytes.NewReader(long), hint, maxBody, &req); err != nil {
			t.Fatal(err)
		}
		if len(req.Windows) != 1 || len(req.Windows[0][0]) != n+1 || req.Windows[0][0][n] != 2 {
			t.Fatalf("hint %d: a %d-byte body did not decode whole", hint, len(long))
		}
	}
}

// TestWindowRouteErrorCodes runs every decode failure, and the case-folded
// key that must still be accepted, through each of the three window routes.
func TestWindowRouteErrorCodes(t *testing.T) {
	const maxBody = 4096
	_, ts, _, windows := testServerOpts(t, Options{Workers: 2, MaxBatch: 4, MaxBody: maxBody})
	one, err := json.Marshal(predictRequest{Windows: windows[:1]})
	if err != nil {
		t.Fatal(err)
	}
	five, err := json.Marshal(predictRequest{Windows: windows[:5]})
	if err != nil {
		t.Fatal(err)
	}
	folded := strings.Replace(string(one), `"windows"`, `"Windows"`, 1)
	over := `{"windows":[[[` + strings.Repeat("0,", maxBody) + `0]]]}`
	cases := []struct {
		name   string
		body   string
		status int
		code   string // "" for success
	}{
		{"malformed", `{"windows":[[[0,0]]`, http.StatusBadRequest, codeInvalidJSON},
		{"trailing", string(one) + `{"again":1}`, http.StatusBadRequest, codeTrailingData},
		{"over_max_body", over, http.StatusRequestEntityTooLarge, codeBodyTooLarge},
		{"empty_batch", `{"windows":[]}`, http.StatusBadRequest, codeEmptyBatch},
		{"over_max_batch", string(five), http.StatusRequestEntityTooLarge, codeBatchTooLarge},
		{"string_value", `{"windows":[[["0.1",0.2],[0.3,0.4]]]}`, http.StatusBadRequest, codeInvalidJSON},
		{"out_of_range", `{"windows":[[[1e400,0.2],[0.3,0.4]]]}`, http.StatusBadRequest, codeInvalidJSON},
		{"case_folded_key", folded, 0, ""},
	}
	for _, route := range []struct{ path, okBody string }{
		{"/v1/predict", "predictions"},
		{"/v1/adapt", "stats"},
		{"/v1/stream/adapt", "accepted"},
	} {
		for _, tc := range cases {
			t.Run(route.path+"/"+tc.name, func(t *testing.T) {
				resp, err := http.Post(ts.URL+route.path, "application/json", strings.NewReader(tc.body))
				if err != nil {
					t.Fatal(err)
				}
				if tc.code != "" {
					wantError(t, resp, tc.status, tc.code)
					return
				}
				got := decodeBody[map[string]any](t, resp)
				if resp.StatusCode >= 300 || got[route.okBody] == nil {
					t.Fatalf("status %d, body %v: want success with %q", resp.StatusCode, got, route.okBody)
				}
			})
		}
	}

	// The decoded rows are len == cap slices of one shared array: an append
	// to one row must reallocate, never overwrite its neighbour.
	raw, err := json.Marshal(predictRequest{Windows: windows[:3]})
	if err != nil {
		t.Fatal(err)
	}
	var req predictRequest
	if err := decodeWindowsBody(bytes.NewReader(raw), int64(len(raw)), maxBody, &req); err != nil {
		t.Fatal(err)
	}
	if diff := sameWindows(req.Windows, windows[:3]); diff != "" {
		t.Fatal(diff)
	}
	checkRowsLenEqCap(t, req.Windows)
	next := req.Windows[0][1][0]
	_ = append(req.Windows[0][0], 99)
	_ = append(req.Windows[0], []float64{99})
	if req.Windows[0][1][0] != next || len(req.Windows[1]) != len(windows[1]) || sameWindows(req.Windows, windows[:3]) != "" {
		t.Fatal("append to a decoded row or window overwrote its neighbour")
	}
}

// TestUploadIsNotWindowDecode pins that bundle uploads are timed under
// their own "upload" stage, not the window-decode stage.
func TestUploadIsNotWindowDecode(t *testing.T) {
	srv, ts, _, _ := testServer(t)
	exp, err := http.Get(ts.URL + "/v1/model")
	if err != nil {
		t.Fatal(err)
	}
	bundle, err := io.ReadAll(exp.Body)
	exp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+"/v1/models/copy", "application/octet-stream", bytes.NewReader(bundle))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("upload status %d, want 201", resp.StatusCode)
	}
	if n := srv.met.stages["decode"].ops.Load(); n != 0 {
		t.Fatalf("decode stage ops = %d after a model upload, want 0", n)
	}
	if n := srv.met.stages["upload"].ops.Load(); n != 1 {
		t.Fatalf("upload stage ops = %d, want 1", n)
	}
	rec := httptest.NewRecorder()
	srv.handleMetrics(rec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	if !strings.Contains(rec.Body.String(), `smore_stage_ops_total{stage="upload"} 1`) {
		t.Fatal(`metrics missing smore_stage_ops_total{stage="upload"} 1`)
	}
}
