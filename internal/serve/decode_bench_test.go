package serve

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"

	"go-arxiv/smore/internal/data"
	"go-arxiv/smore/internal/encode"
	"go-arxiv/smore/internal/model"
	"go-arxiv/smore/internal/pipeline"
)

// benchConfig is the serving benchmark's model shape (cmd/smore's default:
// dim 4096, 32 levels, 4 sensors, 5 classes, 64-step windows), trained on a
// smaller set so the benchmark's setup stays short.
func benchConfig() pipeline.Config {
	return pipeline.Config{
		Encoder: encode.Config{Dim: 4096, Sensors: 4, Levels: 32, NGram: 3, Min: -3, Max: 3, Seed: 5},
		Model: model.Config{
			Dim: 4096, Classes: 5, RetrainEpochs: 1, AdaptEpochs: 1,
			Confidence: 0.005, AdaptRate: 2.0,
		},
		Data: data.Config{
			Sensors: 4, Classes: 5, WindowLen: 64, PerClass: 16, Seed: 5,
			Domains: pipeline.DefaultDomains(1),
		},
		TrainFrac: 0.75,
	}
}

// benchWindows is the target-domain windows of benchConfig's dataset.
var benchWindows = sync.OnceValues(func() ([][][]float64, error) {
	ds, err := data.Generate(benchConfig().Data)
	if err != nil {
		return nil, err
	}
	return data.Windows(ds.Domains[len(ds.Domains)-1]), nil
})

// benchBody is a predict body of n windows, built the way the serving
// benchmark builds its bodies: json.Marshal of generated windows.
func benchBody(b *testing.B, n int) []byte {
	b.Helper()
	ws, err := benchWindows()
	if err != nil {
		b.Fatal(err)
	}
	body, err := json.Marshal(map[string]any{"windows": ws[:n]})
	if err != nil {
		b.Fatal(err)
	}
	return body
}

// BenchmarkDecodeWindows times the request-decode layer alone: body read,
// JSON parse, and the batch bounds, for 1- and 64-window bodies.
func BenchmarkDecodeWindows(b *testing.B) {
	for _, tc := range []struct {
		name string
		n    int
	}{{"windows=1", 1}, {"windows=64", 64}} {
		b.Run(tc.name, func(b *testing.B) {
			body := benchBody(b, tc.n)
			s := &Server{opt: Options{}.withDefaults(), met: newMetrics()}
			b.SetBytes(int64(len(body)))
			b.ReportAllocs()
			b.ResetTimer()
			for range b.N {
				r := httptest.NewRequest(http.MethodPost, "/v1/predict", bytes.NewReader(body))
				var req predictRequest
				if err := s.decodeWindows(httptest.NewRecorder(), r, &req); err != nil {
					b.Fatal(err)
				}
				if len(req.Windows) != tc.n {
					b.Fatalf("decoded %d windows, want %d", len(req.Windows), tc.n)
				}
			}
		})
	}
}

// BenchmarkServePredict times one 64-window predict through the whole HTTP
// path on a loopback httptest server: body decode, encode, infer, and the
// JSON response.
func BenchmarkServePredict(b *testing.B) {
	art, err := pipeline.Train(benchConfig())
	if err != nil {
		b.Fatal(err)
	}
	srv, err := New(art.Bundle(), Options{})
	if err != nil {
		b.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	body := benchBody(b, 64)
	b.SetBytes(int64(len(body)))
	b.ReportAllocs()
	b.ResetTimer()
	for range b.N {
		resp, err := http.Post(ts.URL+"/v1/predict", "application/json", bytes.NewReader(body))
		if err != nil {
			b.Fatal(err)
		}
		var pr predictResponse
		if err := json.NewDecoder(resp.Body).Decode(&pr); err != nil {
			b.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK || len(pr.Predictions) != 64 {
			b.Fatalf("status %d, %d predictions", resp.StatusCode, len(pr.Predictions))
		}
	}
}
