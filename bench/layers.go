package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"fmt"
	"io"
	"strings"

	"github.com/hourglass/sbon/internal/optimizer"
)

// setupLayerMetrics turns the set-up's spans into the per-layer
// metrics that are plain durations of one call into one layer, and
// records the quality of the embedding the set-up produced.
func setupLayerMetrics(c *ctx, env *optimizer.Env) {
	rec, rep := c.rec, c.rep
	rep.set("vivaldi.median_rel_err", env.EmbeddingQuality.MedianRelErr)
	rep.set("topology.generate_s", rec.total("topology.generate"))
	rep.set("topology.sparse_build_s", rec.total("topology.latency_build"))
	rep.set("optimizer.batch_cold_s", rec.total("optimizer.batch_cold"))
	rep.set("overlay.new_network_s", rec.total("overlay.new_network"))
	rep.set("optimizer.deploy_us", 1e6*mean(rec.durations("optimizer.deploy")))
	rep.set("stream.engine_deploy_us", 1e6*mean(rec.durations("stream.engine_deploy")))
	// opt_churn overwrites this with its in-slice rounds.
	rep.set("vivaldi.ticker_round_ms", 1e3*rec.total("vivaldi.ticker_warm")/float64(c.sz.tickerWarmRounds))
	// The DHT build is the environment with a catalog minus the same
	// environment without one.
	withDHT := rec.total("optimizer.new_env")
	if embed := rec.total("vivaldi.embed"); embed > 0 {
		rep.set("vivaldi.embed_s", embed)
		rep.set("dht.build_s", max(0, withDHT-embed))
	}
	if plain := rec.total("optimizer.new_env_plain"); plain > 0 {
		rep.set("dht.build_s", max(0, withDHT-plain))
	}
}

const repoPrefix = "github.com/hourglass/sbon/internal/"

// frameLayer names the layer a profile frame belongs to: an internal
// package that is one of the twelve layers; "other/<package>" for the
// rest of the repository (costspace, hilbert, query, metrics, trace,
// workload and the benchmark itself, "other/bench"); "" for everything
// outside it.
func frameLayer(fn string) string {
	if rest, ok := strings.CutPrefix(fn, repoPrefix); ok {
		pkg := rest
		if i := strings.IndexAny(rest, "./"); i >= 0 {
			pkg = rest[:i]
		}
		for _, l := range layers {
			if l == pkg {
				return l
			}
		}
		return "other/" + pkg
	}
	if strings.HasPrefix(fn, "main.") {
		return "other/bench"
	}
	return ""
}

// cpuShares reads a CPU profile (gzipped profile.proto, as runtime/pprof
// writes it) and returns, per layer, the share of sampled CPU time whose
// innermost repository frame is in that layer; samples with no
// repository frame at all (GC workers, the scheduler) go to "runtime".
// "other" is the sum of the "other/<package>" entries, which are kept
// so the traced run can say what "other" is made of.
// The standard library has no profile reader outside internal/, and the
// benchmark may not add dependencies, so the few fields needed are
// decoded by hand.
func cpuShares(gz []byte) (map[string]float64, error) {
	shares := map[string]float64{}
	if len(gz) == 0 {
		return shares, nil
	}
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, err
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, err
	}

	type sample struct {
		locs  []uint64
		value int64
	}
	var (
		samples   []sample
		locFuncs  = map[uint64][]uint64{} // location id -> function ids, innermost first
		funcNames = map[uint64]int64{}    // function id -> string table index
		strs      []string
	)
	err = protoFields(raw, func(field int, varint uint64, data []byte) error {
		switch field {
		case 2: // Sample
			var s sample
			var values []uint64
			err := protoFields(data, func(f int, v uint64, d []byte) error {
				switch f {
				case 1:
					s.locs = appendPacked(s.locs, v, d)
				case 2:
					values = appendPacked(values, v, d)
				}
				return nil
			})
			if err != nil {
				return err
			}
			if len(values) > 0 {
				s.value = int64(values[len(values)-1]) // cpu nanoseconds
			}
			samples = append(samples, s)
		case 4: // Location
			var id uint64
			var fns []uint64
			err := protoFields(data, func(f int, v uint64, d []byte) error {
				switch f {
				case 1:
					id = v
				case 4: // Line
					return protoFields(d, func(lf int, lv uint64, _ []byte) error {
						if lf == 1 {
							fns = append(fns, lv)
						}
						return nil
					})
				}
				return nil
			})
			if err != nil {
				return err
			}
			locFuncs[id] = fns
		case 5: // Function
			var id uint64
			var name int64
			err := protoFields(data, func(f int, v uint64, _ []byte) error {
				switch f {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			if err != nil {
				return err
			}
			funcNames[id] = name
		case 6: // string_table
			strs = append(strs, string(data))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}

	var total int64
	byLayer := map[string]int64{}
	for _, s := range samples {
		layer := "runtime"
	walk:
		for _, loc := range s.locs { // leaf first
			for _, fn := range locFuncs[loc] {
				idx := funcNames[fn]
				if idx < 0 || int(idx) >= len(strs) {
					continue
				}
				if l := frameLayer(strs[idx]); l != "" {
					layer = l
					break walk
				}
			}
		}
		byLayer[layer] += s.value
		total += s.value
	}
	if total == 0 {
		return shares, nil
	}
	for l, v := range byLayer {
		shares[l] = float64(v) / float64(total)
		if strings.HasPrefix(l, "other/") {
			shares["other"] += shares[l]
		}
	}
	return shares, nil
}

// protoFields walks the top-level fields of one protobuf message,
// calling fn with the varint value (wire type 0) or the bytes (wire
// type 2) of each.
func protoFields(b []byte, fn func(field int, varint uint64, data []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return fmt.Errorf("profile: bad field key")
		}
		b = b[n:]
		field, wire := int(key>>3), key&7
		switch wire {
		case 0:
			v, n := binary.Uvarint(b)
			if n <= 0 {
				return fmt.Errorf("profile: bad varint")
			}
			b = b[n:]
			if err := fn(field, v, nil); err != nil {
				return err
			}
		case 1:
			if len(b) < 8 {
				return fmt.Errorf("profile: short fixed64")
			}
			b = b[8:]
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return fmt.Errorf("profile: bad length")
			}
			if err := fn(field, 0, b[n:n+int(l)]); err != nil {
				return err
			}
			b = b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return fmt.Errorf("profile: short fixed32")
			}
			b = b[4:]
		default:
			return fmt.Errorf("profile: unsupported wire type %d", wire)
		}
	}
	return nil
}

// appendPacked appends a repeated integer field's content: one value
// when it arrived as a plain varint, all of them when packed.
func appendPacked(dst []uint64, varint uint64, packed []byte) []uint64 {
	if packed == nil {
		return append(dst, varint)
	}
	for len(packed) > 0 {
		v, n := binary.Uvarint(packed)
		if n <= 0 {
			break
		}
		dst = append(dst, v)
		packed = packed[n:]
	}
	return dst
}
