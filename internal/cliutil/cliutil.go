// Package cliutil holds the flag-parsing helpers shared by the command-line
// tools: trace specs ("lte:3", "fcc:10", "const:2.5", "mahimahi:<path>")
// and the scheme registry mapping CLI names to abr factories.
package cliutil

import (
	"fmt"
	"os"
	"sort"
	"strconv"
	"strings"

	"cava/internal/abr"
	"cava/internal/core"
	"cava/internal/quality"
	"cava/internal/trace"
	"cava/internal/video"
)

// ParseTrace resolves a trace spec:
//
//	lte:<idx>        generated LTE trace
//	fcc:<idx>        generated FCC trace
//	const:<mbps>     constant-bandwidth trace (20 minutes)
//	mahimahi:<path>  mm-link packet log from disk
func ParseTrace(spec string) (*trace.Trace, error) {
	parts := strings.SplitN(spec, ":", 2)
	if len(parts) != 2 {
		return nil, fmt.Errorf("trace spec %q: want lte:<idx>, fcc:<idx>, const:<mbps>, or mahimahi:<path>", spec)
	}
	switch parts[0] {
	case "lte":
		i, err := strconv.Atoi(parts[1])
		if err != nil {
			return nil, fmt.Errorf("trace spec %q: %v", spec, err)
		}
		return trace.GenLTE(i), nil
	case "fcc":
		i, err := strconv.Atoi(parts[1])
		if err != nil {
			return nil, fmt.Errorf("trace spec %q: %v", spec, err)
		}
		return trace.GenFCC(i), nil
	case "const":
		mbps, err := strconv.ParseFloat(parts[1], 64)
		if err != nil {
			return nil, fmt.Errorf("trace spec %q: %v", spec, err)
		}
		if mbps <= 0 {
			return nil, fmt.Errorf("trace spec %q: non-positive rate", spec)
		}
		return trace.Constant(spec, mbps*1e6, 1200, 1), nil
	case "mahimahi":
		f, err := os.Open(parts[1])
		if err != nil {
			return nil, fmt.Errorf("trace spec %q: %v", spec, err)
		}
		defer f.Close()
		return trace.ReadMahimahi(f, parts[1], 1)
	default:
		return nil, fmt.Errorf("unknown trace family %q", parts[0])
	}
}

// ParseCorpus resolves a comma-separated trace-corpus spec into a trace
// set. Each element names a family and a count (unlike ParseTrace, where
// the number is an index):
//
//	lte:<n>          the first n generated LTE traces
//	fcc:<n>          the first n generated FCC traces
//	const:<mbps>     one constant-bandwidth trace (20 minutes)
//	mahimahi:<path>  one mm-link packet log from disk
//
// "lte:40,fcc:20" is a 60-trace mixed corpus. Order is preserved, so a
// spec always produces the same corpus in the same order.
func ParseCorpus(spec string) ([]*trace.Trace, error) {
	var out []*trace.Trace
	for _, part := range strings.Split(spec, ",") {
		part = strings.TrimSpace(part)
		fam, arg, ok := strings.Cut(part, ":")
		if !ok {
			return nil, fmt.Errorf("corpus spec %q: want lte:<n>, fcc:<n>, const:<mbps>, or mahimahi:<path>", part)
		}
		switch fam {
		case "lte", "fcc":
			n, err := strconv.Atoi(arg)
			if err != nil || n <= 0 {
				return nil, fmt.Errorf("corpus spec %q: want a positive trace count", part)
			}
			if fam == "lte" {
				out = append(out, trace.GenLTESet(n)...)
			} else {
				out = append(out, trace.GenFCCSet(n)...)
			}
		default:
			tr, err := ParseTrace(part)
			if err != nil {
				return nil, err
			}
			out = append(out, tr)
		}
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("corpus spec %q: no traces", spec)
	}
	return out, nil
}

// Schemes maps every CLI scheme name to a factory. A factory runs once per
// session; the PANDA/CQ quality table depends only on the video, so its
// sessions share the video's memoized table (quality.TableOf).
func Schemes() map[string]abr.Factory {
	return map[string]abr.Factory{
		"cava":      core.Factory(),
		"cava-p1":   core.Variant("p1"),
		"cava-p12":  core.Variant("p12"),
		"cava-auto": core.AutoFactory(),
		"mpc":       func(v *video.Video) abr.Algorithm { return abr.NewMPC(v, false) },
		"robustmpc": func(v *video.Video) abr.Algorithm { return abr.NewMPC(v, true) },
		"panda-max-sum": func(v *video.Video) abr.Algorithm {
			return abr.NewPANDACQ(v, quality.TableOf(v, quality.PSNR), abr.MaxSum)
		},
		"panda-max-min": func(v *video.Video) abr.Algorithm {
			return abr.NewPANDACQ(v, quality.TableOf(v, quality.PSNR), abr.MaxMin)
		},
		"bba1":       func(v *video.Video) abr.Algorithm { return abr.NewBBA1(v, 0, 0) },
		"rba":        func(v *video.Video) abr.Algorithm { return abr.NewRBA(v, 4) },
		"pia":        func(v *video.Video) abr.Algorithm { return abr.NewPIA(v) },
		"festive":    func(v *video.Video) abr.Algorithm { return abr.NewFESTIVE(v) },
		"bola-avg":   func(v *video.Video) abr.Algorithm { return abr.NewBOLAE(v, abr.BOLAAvg, false) },
		"bolae-peak": func(v *video.Video) abr.Algorithm { return abr.NewBOLAE(v, abr.BOLAPeak, true) },
		"bolae-avg":  func(v *video.Video) abr.Algorithm { return abr.NewBOLAE(v, abr.BOLAAvg, true) },
		"bolae-seg":  func(v *video.Video) abr.Algorithm { return abr.NewBOLAE(v, abr.BOLASeg, true) },
	}
}

// SchemeByName resolves one scheme, with a helpful error listing the names.
func SchemeByName(name string) (abr.Factory, error) {
	reg := Schemes()
	if f, ok := reg[name]; ok {
		return f, nil
	}
	return nil, fmt.Errorf("unknown scheme %q (have %s)", name, strings.Join(SchemeNames(), ", "))
}

// SchemeNames lists the registry keys in sorted order.
func SchemeNames() []string {
	reg := Schemes()
	names := make([]string, 0, len(reg))
	for n := range reg {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}
