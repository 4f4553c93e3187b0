package main

// paperDigest pins the SHA-256 of every experiment's rendered table,
// concatenated in experiment order, per scale. The program must leave
// the tables byte-identical; a deliberate change to them updates this
// pin together with an explanation.
var paperDigest = map[scale]string{
	paperScale:    "811e8b77c845975c49533071d26a03853c0c495c830b5b0c6328c5c712295800",
	{quick: true}: "2458f3b7bb63e07d0742bd7b4f4b3a66ab237d042210a58e33e80908267386a9",
}

// geometryDigest pins the SHA-256 of the geometry sweep's reports for
// digestSeed, per scale.
var geometryDigest = map[scale]string{
	paperScale:    "ae33eef8f5a0ac62a20c50b103192138c75dc8db7a6f77b70fd0a36d4b147769",
	{quick: true}: "f1e15e983d4ee54abda2953e7e5e3d458dcdf5fc466b40f1e4ae9157b41765a5",
}
