package main

import (
	"bufio"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
)

// promSeries is one sample line of a Prometheus text exposition.
type promSeries struct {
	name   string
	labels map[string]string
	value  float64
}

// scrape is one read of GET /metrics?format=prometheus — the server's
// own counters and stage histograms, taken as they are exported.
type scrape []promSeries

// parseProm reads the text exposition format: `name{k="v",...} value`,
// skipping comments. Label values may hold escaped quotes and commas.
func parseProm(r io.Reader) (scrape, error) {
	var out scrape
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || line[0] == '#' {
			continue
		}
		s := promSeries{}
		rest := line
		if i := strings.IndexByte(line, '{'); i >= 0 {
			s.name = line[:i]
			s.labels = map[string]string{}
			rest = line[i+1:]
			for {
				eq := strings.IndexByte(rest, '=')
				if eq < 0 || len(rest) < eq+2 || rest[eq+1] != '"' {
					return nil, fmt.Errorf("prometheus: bad labels in %q", line)
				}
				key := rest[:eq]
				var val strings.Builder
				j := eq + 2
				for ; j < len(rest) && rest[j] != '"'; j++ {
					if rest[j] == '\\' && j+1 < len(rest) {
						j++
						if rest[j] == 'n' {
							val.WriteByte('\n')
							continue
						}
					}
					val.WriteByte(rest[j])
				}
				if j >= len(rest) {
					return nil, fmt.Errorf("prometheus: unterminated label in %q", line)
				}
				s.labels[key] = val.String()
				rest = rest[j+1:]
				if strings.HasPrefix(rest, ",") {
					rest = rest[1:]
					continue
				}
				if !strings.HasPrefix(rest, "}") {
					return nil, fmt.Errorf("prometheus: bad labels in %q", line)
				}
				rest = rest[1:]
				break
			}
		} else {
			sp := strings.IndexByte(line, ' ')
			if sp < 0 {
				return nil, fmt.Errorf("prometheus: no value in %q", line)
			}
			s.name, rest = line[:sp], line[sp:]
		}
		f := strings.Fields(rest)
		if len(f) == 0 {
			return nil, fmt.Errorf("prometheus: no value in %q", line)
		}
		v, err := strconv.ParseFloat(f[0], 64)
		if err != nil {
			return nil, fmt.Errorf("prometheus: bad value in %q", line)
		}
		s.value = v
		out = append(out, s)
	}
	return out, sc.Err()
}

// sum adds every series of the name whose labels include all of match
// (given as key, value pairs) — across tenants, unless one is matched.
func (s scrape) sum(name string, match ...string) float64 {
	var total float64
next:
	for i := range s {
		if s[i].name != name {
			continue
		}
		for j := 0; j+1 < len(match); j += 2 {
			if s[i].labels[match[j]] != match[j+1] {
				continue next
			}
		}
		total += s[i].value
	}
	return total
}

const stageHist = "eventdetect_stage_duration_seconds"

// stageSeconds and stageCount read one pipeline stage's histogram totals.
func (s scrape) stageSeconds(stage string) float64 { return s.sum(stageHist+"_sum", "stage", stage) }
func (s scrape) stageCount(stage string) float64   { return s.sum(stageHist+"_count", "stage", stage) }

func scrapeMetrics(srv *serverProc) (scrape, error) {
	resp, err := http.Get(srv.url("/metrics?format=prometheus"))
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET /metrics: HTTP %d", resp.StatusCode)
	}
	return parseProm(resp.Body)
}
