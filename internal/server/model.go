// Package server is the encrypted-inference serving front end: an HTTP
// service that multiplexes many client sessions onto the deployed models of
// an internal/registry catalog — one shared henn/ckks evaluation stack per
// model, one cross-model scheduler and worker budget for the whole server.
//
// The deployment story follows the marshal layer's framing: the client owns
// the secret and public keys and ships only evaluation material — the
// parameters literal, relinearization key and rotation-key set — when
// registering a session, then POSTs marshaled ciphertexts to the inference
// endpoint and decrypts the returned result locally. The server never sees a
// plaintext, and holds no key that could produce or open one.
// Models themselves are artifacts on the same wire: an admin hot-deploys a
// marshaled registry.Model bundle and retires models by name, without
// restarting the server.
//
// Model identity is versioned: every deploy of a name gets the next version
// number (alpha@1, alpha@2, ...), a bare name resolves to the newest live
// version, and a supersede publishes vN+1 while vN drains — existing
// sessions keep serving the old stack until they disconnect, new
// registrations bind the new one. With Options.StateDir set, every deployed
// bundle persists as <name>@<version>.hemodel and the catalog reloads on
// restart. When Options.AdminToken is set, the admin mutations require
// "Authorization: Bearer <token>" (401 without a token, 403 with a wrong
// one).
//
// Protocol (all binary payloads are formats on the internal/wire codec, whose
// package comment lists their magics; JSON []byte fields in responses are
// base64 per encoding/json):
//
//	GET  /v1/models
//	    -> [{name, version, draining, inputDim, outputDim, levels, slots,
//	         params, rotations}]
//	    The catalog, live and draining versions alike. Each model
//	    prescribes its parameter literal; prime derivation is
//	    deterministic, so both sides compile identical chains.
//
//	GET  /v1/models/{name}
//	    -> one catalog entry, 404 for unknown names. "alpha@2" pins a
//	    version (still served while draining), bare "alpha" resolves to
//	    the newest live version.
//
//	POST /v1/models[?supersede=true]          (admin)
//	    raw marshaled registry.Model bundle -> catalog entry (201)
//	    Hot deploy: the model is validated and compiled, then
//	    serves sessions immediately as the next version of its name.
//	    Deploying over a live name is 409 unless supersede=true, which
//	    publishes vN+1 and gracefully drains vN: old sessions finish on
//	    the old stack, which leaves the catalog when its last session
//	    goes and is freed, caches included, by the garbage collector.
//
//	DELETE /v1/models/{name}                  (admin)
//	    Retire: "name" removes every version, "name@N" one version. The
//	    catalog entry goes at once, bound sessions are closed (queued jobs
//	    fail 410), in-flight units finish, and the garbage collector frees
//	    the stack, caches included, once the last of them answers. 204 on
//	    success.
//
//	POST /v1/sessions?model=<ref>
//	    three internal/ckks payloads back to back, each behind its magic:
//	      ParametersLiteral | RelinearizationKey | RotationKeySet
//	    -> {sessionID, model}
//	    Binds the session to a deployed model; the response model is the
//	    versioned reference ("alpha@2"). model is a bare or versioned
//	    name (an empty or unknown one is 404, before any body byte is
//	    read); the model fixes the body's exact length (any other is 413
//	    or 400); the literal must byte-match the model's prescribed one;
//	    the keys must be shaped and reduced for those parameters, and the
//	    rotation keys must cover exactly the model's rotation set.
//	    Evaluation keys only: no public key is sent, and there is no JSON
//	    form. Registering against a retired or draining version returns
//	    410; one the key budget (Options.KeyBudget) cannot hold, 429.
//
//	POST /v1/sessions/{id}/infer
//	    raw marshaled ciphertext -> raw marshaled ciphertext
//	    All sessions' requests — across every model — flow through one
//	    scheduler: strict round-robin over per-session queues, one job per
//	    session turn, taken by a bounded set of workers, so one worker
//	    budget serves the whole catalog. The input ciphertext must arrive
//	    at the prescribed literal's top level and default scale, exactly
//	    the ciphertext Session.Infer sends; any other level or scale is a
//	    400 (each linear layer keeps one plan, encoded for that one input
//	    shape). Requests on a session whose model was retired return 410.
//
//	GET  /v1/stats
//	    -> scheduler counters plus per-model-version sessions/backlog/
//	    units and draining state.
//
// Errors are JSON {"error": "..."} with a 4xx/5xx status.
package server

import "github.com/efficientfhe/smartpaf/internal/registry"

// ModelInfo is the public description a client fetches before key
// generation: the prescribed parameters and the rotation steps its key set
// must cover, plus the version identity (register against Ref() to pin the
// exact version the info describes).
type ModelInfo struct {
	Name      string `json:"name"`
	Version   int    `json:"version"`
	Draining  bool   `json:"draining,omitempty"`
	InputDim  int    `json:"inputDim"`
	OutputDim int    `json:"outputDim"`
	Levels    int    `json:"levels"`
	Slots     int    `json:"slots"`
	Params    []byte `json:"params"`
	Rotations []int  `json:"rotations"`
}

// Ref returns the versioned reference ("name@version") this info describes.
func (mi *ModelInfo) Ref() string { return registry.Ref(mi.Name, mi.Version) }

// infoFor projects a deployed stack into its public description.
func infoFor(d *registry.Deployed) ModelInfo {
	m := d.Model()
	return ModelInfo{
		Name:      m.Name,
		Version:   d.Version(),
		Draining:  d.Draining(),
		InputDim:  m.InputDim,
		OutputDim: m.OutputDim,
		Levels:    d.Levels(),
		Slots:     d.Params().Slots(),
		Params:    d.ParamBytes(),
		Rotations: d.Rotations(),
	}
}
