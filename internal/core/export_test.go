package core

// StateGather is the external tests' name for stateGather.
const StateGather = stateGather
