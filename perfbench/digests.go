package main

import (
	_ "embed"
	"encoding/json"
)

// digestRecord is a workload's recorded output for one seed: the digest
// of its reports and the exact counts a run of the same code repeats.
type digestRecord struct {
	Digest string           `json:"digest"`
	Counts map[string]int64 `json:"counts"`
}

//go:embed digests.json
var digestsJSON []byte

// recordedDigests maps workload, then seed, to the recorded output.
var recordedDigests = func() map[string]map[string]digestRecord {
	var m map[string]map[string]digestRecord
	if err := json.Unmarshal(digestsJSON, &m); err != nil {
		panic("perfbench: digests.json: " + err.Error())
	}
	return m
}()
